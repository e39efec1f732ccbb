package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/pimlab/pimtrie/internal/bitstr"
)

// Checkpoint files serialize the full key/value state as of a WAL
// sequence number, so recovery replays only the log tail after the
// newest checkpoint. File layout (little-endian):
//
//	magic "PIMCKP1\n" | u64 seq | u64 nkeys | nkeys × (key, u64 value) | u32 crc
//
// where the CRC covers everything before it (magic included) and keys
// use the WAL key codec. The file is written to a temp name, fsynced,
// and renamed into place, so a crash mid-checkpoint leaves the
// previous checkpoint intact and at worst a stray temp file.
const (
	ckptMagic  = "PIMCKP1\n"
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ck"
)

var errBadCheckpoint = errors.New("wal: bad checkpoint")

func checkpointPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", ckptPrefix, seq, ckptSuffix))
}

func parseCheckpointName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	mid := name[len(ckptPrefix) : len(name)-len(ckptSuffix)]
	seq, err := strconv.ParseUint(mid, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listCheckpoints returns the seq of every checkpoint file in dir,
// ascending.
func listCheckpoints(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, ok := parseCheckpointName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// crcWriter streams a CRC32 over everything written through it.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	c.n += int64(len(p))
	return c.w.Write(p)
}

// WriteCheckpoint atomically writes the checkpoint for seq from an
// iterator over n key/value pairs (e.g. trie.Flat.WalkKeys on a
// frozen snapshot). Returns the file size.
func WriteCheckpoint(dir string, seq uint64, n int, walk func(emit func(bitstr.String, uint64))) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	final := checkpointPath(dir, seq)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	cw := &crcWriter{w: bufio.NewWriterSize(f, 1<<16)}
	var hdr [24]byte
	copy(hdr[:], ckptMagic)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(n))
	if _, err := cw.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	var werr error
	wrote := 0
	scratch := make([]byte, 0, 64)
	walk(func(k bitstr.String, v uint64) {
		if werr != nil {
			return
		}
		scratch = appendKey(scratch[:0], k)
		scratch = binary.LittleEndian.AppendUint64(scratch, v)
		_, werr = cw.Write(scratch)
		wrote++
	})
	if werr == nil && wrote != n {
		werr = fmt.Errorf("wal: checkpoint iterator yielded %d pairs, expected %d", wrote, n)
	}
	if werr == nil {
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], cw.crc)
		_, werr = cw.w.Write(tail[:]) // the CRC itself is not CRC'd
	}
	if werr == nil {
		werr = cw.w.Flush()
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return 0, werr
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	return cw.n + 4, nil
}

// readCheckpoint loads and verifies one checkpoint file.
func readCheckpoint(path string) (seq uint64, keys []bitstr.String, values []uint64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, nil, err
	}
	return decodeCheckpoint(raw)
}

// decodeCheckpoint verifies and decodes the bytes of one checkpoint
// file.
func decodeCheckpoint(raw []byte) (seq uint64, keys []bitstr.String, values []uint64, err error) {
	if len(raw) < 28 || string(raw[:8]) != ckptMagic {
		return 0, nil, nil, errBadCheckpoint
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return 0, nil, nil, errBadCheckpoint
	}
	seq = binary.LittleEndian.Uint64(body[8:])
	n := binary.LittleEndian.Uint64(body[16:])
	// An entry takes at least 9 bytes (a one-byte empty key and its
	// value), so a count the body cannot hold is refused before any
	// room is reserved for it.
	if n > uint64(len(body)-24)/9 {
		return 0, nil, nil, errBadCheckpoint
	}
	keys = make([]bitstr.String, 0, n)
	values = make([]uint64, 0, n)
	off := 24
	for i := uint64(0); i < n; i++ {
		var k bitstr.String
		k, off, err = decodeKey(body, off)
		if err != nil {
			return 0, nil, nil, errBadCheckpoint
		}
		if off+8 > len(body) {
			return 0, nil, nil, errBadCheckpoint
		}
		keys = append(keys, k)
		values = append(values, binary.LittleEndian.Uint64(body[off:]))
		off += 8
	}
	if off != len(body) {
		return 0, nil, nil, errBadCheckpoint
	}
	return seq, keys, values, nil
}

// PruneCheckpoints removes all but the newest keep checkpoint files.
func PruneCheckpoints(dir string, keep int) error {
	if keep < 1 {
		keep = 1
	}
	seqs, err := listCheckpoints(dir)
	if err != nil {
		return err
	}
	if len(seqs) <= keep {
		return nil
	}
	for _, seq := range seqs[:len(seqs)-keep] {
		if err := os.Remove(checkpointPath(dir, seq)); err != nil {
			return err
		}
	}
	return syncDir(dir)
}
