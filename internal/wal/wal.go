package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/metrics"
)

// SyncPolicy controls when appended records are fsynced to stable
// storage. Every policy issues the write(2) *before* Append returns —
// so an acknowledged epoch always survives process death (the OS page
// cache outlives a SIGKILL). The policies differ only in machine-crash
// durability:
//
//   - SyncEveryEpoch fsyncs inline before Append returns: an acked
//     epoch survives power loss. Slowest.
//   - SyncInterval fsyncs on a background timer: power loss can lose
//     up to Interval of acked epochs. The throughput/durability
//     middle ground.
//   - SyncNone never fsyncs (the OS flushes on its own schedule).
type SyncPolicy int

const (
	SyncEveryEpoch SyncPolicy = iota
	SyncInterval
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryEpoch:
		return "epoch"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "off"
	default:
		return "unknown"
	}
}

// ParseSyncPolicy maps the pimbench/CLI spelling to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "epoch", "every", "always":
		return SyncEveryEpoch, nil
	case "interval":
		return SyncInterval, nil
	case "off", "none", "never":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want epoch|interval|off)", s)
}

const (
	segMagic  = "PIMWAL2\n" // 2: two-section epoch records; a PIMWAL1 directory fails Recover with "bad magic"
	segPrefix = "wal-"
	segSuffix = ".log"
	segHdrLen = 16 // magic + u64 firstSeq
)

func segmentPath(dir string, firstSeq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix))
}

// parseSegmentName extracts firstSeq from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := name[len(segPrefix) : len(name)-len(segSuffix)]
	seq, err := strconv.ParseUint(mid, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the firstSeq of every segment file in dir,
// ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Options configures Open.
type Options struct {
	Dir      string
	Policy   SyncPolicy
	Interval time.Duration // SyncInterval period; default 10ms
	NextSeq  uint64        // first sequence number to assign; default 1

	// Metrics, when non-nil, registers the pimtrie_wal_* instrument
	// set (idempotent per registry+labels, like the serve layer).
	Metrics      *metrics.Registry
	MetricLabels []metrics.Label
}

// Log is an append-only, CRC-framed epoch log over numbered segment
// files. Append assigns sequence numbers itself; Rotate starts a new
// segment (done at checkpoint time so covered segments can be
// pruned). All methods are safe for concurrent use, though the serve
// layer calls Append from a single executor goroutine.
type Log struct {
	dir      string
	policy   SyncPolicy
	interval time.Duration

	mu       sync.Mutex
	syncMu   sync.Mutex // serializes background fsync vs segment close; acquired after mu, never before
	f        *os.File
	buf      []byte // scratch: frame encoding
	nextSeq  uint64
	segStart uint64 // firstSeq of the open segment
	dirty    bool   // appended since last fsync
	closed   bool

	appends  uint64
	bytes    uint64
	fsyncs   uint64
	segCount int

	stop     chan struct{}
	tickerWG sync.WaitGroup

	met *walMetrics
}

// Stats is a point-in-time summary of Log activity.
type Stats struct {
	LastSeq  uint64 // highest assigned sequence number (NextSeq-1)
	Appends  uint64 // records appended
	Bytes    uint64 // record bytes written (frames + segment headers)
	Fsyncs   uint64 // fsync(2) calls issued
	Segments int    // segment files currently on disk
}

// Open creates dir if needed and starts a fresh segment at
// Options.NextSeq. Existing segments are left in place (Recover reads
// them); a new segment is always started so that a torn tail from a
// previous crash is never appended after.
func Open(o Options) (*Log, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("wal: empty dir")
	}
	if o.NextSeq == 0 {
		o.NextSeq = 1
	}
	if o.Interval <= 0 {
		o.Interval = 10 * time.Millisecond
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	existing, err := listSegments(o.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		dir:      o.Dir,
		policy:   o.Policy,
		interval: o.Interval,
		nextSeq:  o.NextSeq,
		segCount: len(existing),
		stop:     make(chan struct{}),
	}
	if o.Metrics != nil {
		l.met = newWALMetrics(o.Metrics, o.MetricLabels)
	}
	if err := l.openSegmentLocked(); err != nil {
		return nil, err
	}
	if l.policy == SyncInterval {
		l.tickerWG.Add(1)
		go l.syncLoop()
	}
	l.publish()
	return l, nil
}

// openSegmentLocked starts a new segment file at l.nextSeq and writes
// its header. Caller holds l.mu (or is constructing the Log).
func (l *Log) openSegmentLocked() error {
	path := segmentPath(l.dir, l.nextSeq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHdrLen]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], l.nextSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segStart = l.nextSeq
	l.bytes += segHdrLen
	l.segCount++
	if l.met != nil {
		l.met.bytes.Add(segHdrLen)
	}
	return nil
}

// AppendEpoch logs one committed write epoch — its insert section and
// its delete section in one record — and returns the assigned sequence
// number. The record bytes reach the kernel before AppendEpoch returns
// under every sync policy; SyncEveryEpoch additionally fsyncs inline,
// once per record.
func (l *Log) AppendEpoch(inserts []bitstr.String, values []uint64, deletes []bitstr.String) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	seq := l.nextSeq
	l.buf = l.buf[:0]
	l.buf = append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	var err error
	l.buf, err = appendPayload(l.buf, seq, inserts, values, deletes)
	if err != nil {
		return 0, err
	}
	payload := l.buf[frameHeaderSize:]
	binary.LittleEndian.PutUint32(l.buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.buf[4:], crc32.ChecksumIEEE(payload))
	if _, err := l.f.Write(l.buf); err != nil {
		return 0, err
	}
	l.nextSeq++
	l.appends++
	l.bytes += uint64(len(l.buf))
	if l.met != nil {
		l.met.appends.Inc()
		l.met.bytes.Add(uint64(len(l.buf)))
	}
	l.dirty = true
	if l.policy == SyncEveryEpoch {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	l.publish()
	return seq, nil
}

// Append logs an epoch that holds one section only, for callers that
// log one op at a time: op selects whether keys are the insert section
// (with values) or the delete section. The record is AppendEpoch's.
func (l *Log) Append(op uint8, keys []bitstr.String, values []uint64) (uint64, error) {
	switch op {
	case OpInsert:
		return l.AppendEpoch(keys, values, nil)
	case OpDelete:
		return l.AppendEpoch(nil, nil, keys)
	}
	return 0, fmt.Errorf("wal: unknown op %d", op)
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.fsyncs++
	if l.met != nil {
		l.met.fsyncs.Inc()
	}
	return nil
}

// Sync forces an fsync of the open segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	l.publish()
	return err
}

// syncLoop is the SyncInterval background flusher.
func (l *Log) syncLoop() {
	defer l.tickerWG.Done()
	t := time.NewTicker(l.interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.backgroundSync()
		}
	}
}

// backgroundSync fsyncs the open segment WITHOUT holding the append
// lock during the fsync(2) — otherwise every interval flush would
// stall the executor's Append for the disk's sync latency. syncMu
// keeps Rotate/Close from closing the fd mid-fsync; the dirty flag is
// cleared only if nothing was appended during the fsync (bytes written
// after fsync started may not be flushed, so they stay dirty).
func (l *Log) backgroundSync() {
	l.mu.Lock()
	if l.closed || !l.dirty {
		l.mu.Unlock()
		return
	}
	f, wrote := l.f, l.bytes
	l.mu.Unlock()

	l.syncMu.Lock()
	err := f.Sync()
	l.syncMu.Unlock()
	if err != nil {
		// Leave dirty set; an inline sync (Rotate/Close/Sync) will retry
		// and surface the error to a caller that can act on it.
		return
	}

	l.mu.Lock()
	if l.f == f && l.bytes == wrote {
		l.dirty = false
	}
	l.fsyncs++
	if l.met != nil {
		l.met.fsyncs.Inc()
	}
	l.publish()
	l.mu.Unlock()
}

// Rotate syncs and closes the open segment and starts a new one at
// the next sequence number. Called by the checkpointer so that fully
// covered segments become prunable files.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	l.syncMu.Lock()
	cerr := l.f.Close()
	l.syncMu.Unlock()
	if cerr != nil {
		return cerr
	}
	err := l.openSegmentLocked()
	if l.met != nil && err == nil {
		l.met.rotations.Inc()
	}
	l.publish()
	return err
}

// PruneThrough deletes segment files whose every record has sequence
// number <= seq. The open segment is never deleted.
func (l *Log) PruneThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	removed := 0
	for i := 0; i+1 < len(segs); i++ {
		// Segment i covers [segs[i], segs[i+1]-1].
		if segs[i+1] > seq+1 || segs[i] == l.segStart {
			continue
		}
		if err := os.Remove(segmentPath(l.dir, segs[i])); err != nil {
			return err
		}
		removed++
	}
	if removed > 0 {
		l.segCount -= removed
		if err := syncDir(l.dir); err != nil {
			return err
		}
		if l.met != nil {
			l.met.pruned.Add(uint64(removed))
		}
	}
	l.publish()
	return nil
}

// Stats returns a snapshot of cumulative log activity.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		LastSeq:  l.nextSeq - 1,
		Appends:  l.appends,
		Bytes:    l.bytes,
		Fsyncs:   l.fsyncs,
		Segments: l.segCount,
	}
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Close flushes, fsyncs, and closes the open segment. Safe to call
// twice.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	close(l.stop)
	l.mu.Unlock()
	l.tickerWG.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	err := l.syncLocked()
	l.syncMu.Lock()
	cerr := l.f.Close()
	l.syncMu.Unlock()
	if err == nil {
		err = cerr
	}
	l.publish()
	return err
}

// publish refreshes the gauge instruments (counters are incremented
// at their event sites). Caller holds l.mu.
func (l *Log) publish() {
	if l.met == nil {
		return
	}
	l.met.lastSeq.Set(float64(l.nextSeq - 1))
	l.met.segments.Set(float64(l.segCount))
}

// syncDir fsyncs a directory so that entry creation/removal is
// durable (a no-op on filesystems that reject directory fsync).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Some filesystems (and some CI sandboxes) refuse directory
		// fsync; entry durability is best-effort there.
		return nil
	}
	return nil
}
