package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/metrics"
)

// testKey builds a deterministic variable-length key from an op id.
func testKey(i int) bitstr.String {
	bits := 9 + (i*7)%48
	return bitstr.FromUint64(uint64(i)*0x9e3779b97f4a7c15+1, bits)
}

// appendEpochs logs n epochs cycling through the record's shapes —
// inserts only, both sections, deletes only (of earlier inserts) — and
// returns the expected replay tail.
func appendEpochs(t *testing.T, l *Log, n, startID int) []Epoch {
	t.Helper()
	var want []Epoch
	for e := 0; e < n; e++ {
		var ep Epoch
		id := startID + e*3
		if e%3 != 2 {
			for k := 0; k < 1+e%3; k++ {
				ep.Inserts = append(ep.Inserts, testKey(id+k))
				ep.Values = append(ep.Values, uint64(id+k)*31)
			}
		}
		if e%3 != 0 {
			for k := 0; k < 1+e%2; k++ {
				ep.Deletes = append(ep.Deletes, testKey(id-3+k))
			}
		}
		seq, err := l.AppendEpoch(ep.Inserts, ep.Values, ep.Deletes)
		if err != nil {
			t.Fatalf("append %d: %v", e, err)
		}
		ep.Seq = seq
		want = append(want, ep)
	}
	return want
}

func checkKeys(t *testing.T, what string, got, want []bitstr.String) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d keys, want %d", what, len(got), len(want))
	}
	for k := range want {
		if !bitstr.Equal(got[k], want[k]) {
			t.Fatalf("%s key %d: got %v want %v", what, k, got[k], want[k])
		}
	}
}

func checkEpochs(t *testing.T, got, want []Epoch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d epochs, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Seq != w.Seq {
			t.Fatalf("epoch %d: got seq=%d, want %d", i, g.Seq, w.Seq)
		}
		checkKeys(t, fmt.Sprintf("epoch %d inserts", i), g.Inserts, w.Inserts)
		checkKeys(t, fmt.Sprintf("epoch %d deletes", i), g.Deletes, w.Deletes)
		if len(g.Values) != len(w.Values) {
			t.Fatalf("epoch %d: got %d values, want %d", i, len(g.Values), len(w.Values))
		}
		for k := range w.Values {
			if g.Values[k] != w.Values[k] {
				t.Fatalf("epoch %d value %d: got %d want %d", i, k, g.Values[k], w.Values[k])
			}
		}
	}
}

func TestAppendRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	want := appendEpochs(t, l, 23, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkEpochs(t, info.Epochs, want)
	if info.TornTail {
		t.Fatal("clean log reported torn tail")
	}
	if info.LastSeq != want[len(want)-1].Seq {
		t.Fatalf("LastSeq=%d want %d", info.LastSeq, want[len(want)-1].Seq)
	}
}

func TestRecoverEmptyAndMissingDir(t *testing.T) {
	info, err := Recover(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(info.Epochs) != 0 || info.LastSeq != 0 {
		t.Fatalf("missing dir: info=%+v err=%v", info, err)
	}
	info, err = Recover(t.TempDir())
	if err != nil || len(info.Epochs) != 0 {
		t.Fatalf("empty dir: info=%+v err=%v", info, err)
	}
}

func TestCheckpointCoversPrefix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	want := appendEpochs(t, l, 12, 0)

	// Checkpoint state "as of" epoch 6, rotate so the covered segment
	// becomes prunable, then log more.
	ckptSeq := want[5].Seq
	keys := []bitstr.String{testKey(1000), testKey(1001)}
	values := []uint64{7, 9}
	if _, err := WriteCheckpoint(dir, ckptSeq, 2, func(emit func(bitstr.String, uint64)) {
		for i := range keys {
			emit(keys[i], values[i])
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.PruneThrough(ckptSeq); err != nil {
		t.Fatal(err)
	}
	more := appendEpochs(t, l, 4, 100)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointSeq != ckptSeq {
		t.Fatalf("CheckpointSeq=%d want %d", info.CheckpointSeq, ckptSeq)
	}
	if len(info.Keys) != 2 || !bitstr.Equal(info.Keys[0], keys[0]) || info.Values[1] != 9 {
		t.Fatalf("checkpoint payload mismatch: %v %v", info.Keys, info.Values)
	}
	// Tail must be exactly epochs 7.. plus the post-rotate appends.
	wantTail := append(append([]Epoch{}, want[6:]...), more...)
	checkEpochs(t, info.Epochs, wantTail)

	// The pre-rotate segment was NOT fully covered (epochs 7-12 live
	// there), so pruning must have kept it.
	segs, _ := listSegments(dir)
	if len(segs) != 2 {
		t.Fatalf("segments=%v want 2 files", segs)
	}
}

func TestPruneRemovesCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	want := appendEpochs(t, l, 6, 0)
	last := want[len(want)-1].Seq
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.PruneThrough(last); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) != 1 || segs[0] != last+1 {
		t.Fatalf("segments=%v want only the active one at %d", segs, last+1)
	}
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("Stats.Segments=%d want 1", st.Segments)
	}
	l.Close()
}

// TestTornTailFuzz truncates the log at every byte offset inside the
// final record — for each shape a record can take: both sections, or
// either one empty — and asserts recovery yields exactly the preceding
// epochs, the acknowledged prefix.
func TestTornTailFuzz(t *testing.T) {
	ins, vals := []bitstr.String{testKey(500), testKey(501)}, []uint64{5, 6}
	dels := []bitstr.String{testKey(3), testKey(500), testKey(4)}
	for _, shape := range []struct {
		name string
		last Epoch
	}{
		{"mixed", Epoch{Inserts: ins, Values: vals, Deletes: dels}},
		{"inserts-only", Epoch{Inserts: ins, Values: vals}},
		{"deletes-only", Epoch{Deletes: dels}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(Options{Dir: dir, Policy: SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			want := appendEpochs(t, l, 7, 0)
			seg := segmentPath(dir, 1)
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			sizeBefore := fi.Size()
			final := shape.last
			if final.Seq, err = l.AppendEpoch(final.Inserts, final.Values, final.Deletes); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(raw)) <= sizeBefore {
				t.Fatalf("final record added no bytes (%d <= %d)", len(raw), sizeBefore)
			}
			recoverFrom := func(what string, content []byte) *RecoveryInfo {
				tdir := t.TempDir()
				if err := os.WriteFile(filepath.Join(tdir, filepath.Base(seg)), content, 0o644); err != nil {
					t.Fatal(err)
				}
				info, err := Recover(tdir)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				return info
			}

			for cut := sizeBefore; cut < int64(len(raw)); cut++ {
				info := recoverFrom(fmt.Sprintf("cut=%d", cut), raw[:cut])
				checkEpochs(t, info.Epochs, want)
				if torn := cut > sizeBefore; info.TornTail != torn {
					t.Fatalf("cut=%d: TornTail=%v want %v", cut, info.TornTail, torn)
				}
			}
			info := recoverFrom("untruncated", raw)
			checkEpochs(t, info.Epochs, append(append([]Epoch{}, want...), final))
			if info.TornTail {
				t.Fatal("full log reported torn")
			}

			// A bit flip inside the final record's payload must also drop
			// exactly that record.
			for _, flip := range []int64{sizeBefore + frameHeaderSize, int64(len(raw)) - 1} {
				mut := append([]byte{}, raw...)
				mut[flip] ^= 0x40
				info := recoverFrom(fmt.Sprintf("flip=%d", flip), mut)
				checkEpochs(t, info.Epochs, want)
				if !info.TornTail {
					t.Fatalf("flip=%d: corrupt final record not reported torn", flip)
				}
			}
		})
	}
}

// TestAppendOneSection pins the one-section shorthand: it writes the
// same record AppendEpoch does, with the other section empty.
func TestAppendOneSection(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	keys, vals := []bitstr.String{testKey(1), testKey(2)}, []uint64{10, 20}
	if _, err := l.Append(OpInsert, keys, vals); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(OpDelete, keys[:1], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(2, keys, vals); err == nil {
		t.Fatal("Append accepted an unknown op")
	}
	if _, err := l.AppendEpoch(keys, vals[:1], nil); err == nil {
		t.Fatal("AppendEpoch accepted 2 insert keys with 1 value")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkEpochs(t, info.Epochs, []Epoch{
		{Seq: 1, Inserts: keys, Values: vals},
		{Seq: 2, Deletes: keys[:1]},
	})
}

// TestOldSegmentMagicRejected: a directory written before the record
// gained its delete section must fail recovery, not be misread.
func TestOldSegmentMagicRejected(t *testing.T) {
	dir := t.TempDir()
	hdr := make([]byte, segHdrLen)
	copy(hdr, "PIMWAL1\n")
	hdr[8] = 1 // firstSeq 1, little-endian
	if err := os.WriteFile(segmentPath(dir, 1), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("Recover of a PIMWAL1 segment: err=%v, want bad magic", err)
	}
}

// TestReopenAfterTornTail exercises the crash-reopen protocol: the
// new log re-issues the torn record's sequence number in a fresh
// segment and recovery stitches the two together.
func TestReopenAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	want := appendEpochs(t, l, 5, 0)
	torn := appendEpochs(t, l, 1, 900)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record.
	seg := segmentPath(dir, 1)
	raw, _ := os.ReadFile(seg)
	if err := os.WriteFile(seg, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	info, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkEpochs(t, info.Epochs, want)
	if !info.TornTail || info.LastSeq != want[len(want)-1].Seq {
		t.Fatalf("info=%+v", info)
	}

	// Reopen where recovery left off: the torn seq is re-assigned.
	l2, err := Open(Options{Dir: dir, Policy: SyncNone, NextSeq: info.LastSeq + 1})
	if err != nil {
		t.Fatal(err)
	}
	more := appendEpochs(t, l2, 3, 200)
	if more[0].Seq != torn[0].Seq {
		t.Fatalf("reopened log assigned seq %d, want reuse of torn seq %d", more[0].Seq, torn[0].Seq)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	info2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkEpochs(t, info2.Epochs, append(append([]Epoch{}, want...), more...))
	if info2.TornTail {
		t.Fatal("stitched log reported torn tail")
	}
}

func TestSyncIntervalAndMetrics(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	l, err := Open(Options{
		Dir: dir, Policy: SyncInterval, Interval: time.Millisecond,
		Metrics: reg, MetricLabels: []metrics.Label{metrics.L("dirrole", "test")},
	})
	if err != nil {
		t.Fatal(err)
	}
	appendEpochs(t, l, 8, 0)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if l.Stats().Fsyncs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval policy never fsynced")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appends != 8 || st.LastSeq != 8 || st.Bytes == 0 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestPruneCheckpoints(t *testing.T) {
	dir := t.TempDir()
	emit := func(func(bitstr.String, uint64)) {}
	for _, seq := range []uint64{3, 7, 12} {
		if _, err := WriteCheckpoint(dir, seq, 0, emit); err != nil {
			t.Fatal(err)
		}
	}
	if err := PruneCheckpoints(dir, 2); err != nil {
		t.Fatal(err)
	}
	seqs, _ := listCheckpoints(dir)
	if len(seqs) != 2 || seqs[0] != 7 || seqs[1] != 12 {
		t.Fatalf("checkpoints=%v want [7 12]", seqs)
	}
}

func TestCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	kv := func(k bitstr.String, v uint64) func(func(bitstr.String, uint64)) {
		return func(emit func(bitstr.String, uint64)) { emit(k, v) }
	}
	if _, err := WriteCheckpoint(dir, 4, 1, kv(testKey(1), 11)); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCheckpoint(dir, 9, 1, kv(testKey(2), 22)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newer checkpoint; recovery must fall back to seq 4.
	path := checkpointPath(dir, 9)
	raw, _ := os.ReadFile(path)
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointSeq != 4 || len(info.Keys) != 1 || info.Values[0] != 11 {
		t.Fatalf("info=%+v", info)
	}
}

// checkpointBody returns a checkpoint's bytes before its CRC: the
// header for seq and n, then the given entry bytes.
func checkpointBody(seq, n uint64, entries []byte) []byte {
	b := append([]byte(ckptMagic), make([]byte, 16)...)
	binary.LittleEndian.PutUint64(b[8:], seq)
	binary.LittleEndian.PutUint64(b[16:], n)
	return append(b, entries...)
}

// withCRC appends the checkpoint CRC to body.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestCheckpointCountBoundedByBody: a well-formed 28-byte checkpoint
// whose header claims many entries is refused without reserving room
// for them. Every entry takes at least 9 bytes, so the claim is checked
// against the body before anything is allocated.
func TestCheckpointCountBoundedByBody(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []uint64{1, 1 << 20, maxPayload, 1<<64 - 1} {
		path := filepath.Join(dir, fmt.Sprintf("claim-%d.ck", n))
		if err := os.WriteFile(path, withCRC(checkpointBody(1, n, nil)), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := readCheckpoint(path)
		runtime.ReadMemStats(&after)
		if err != errBadCheckpoint {
			t.Fatalf("claim %d: err %v, want errBadCheckpoint", n, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Fatalf("claim %d: reading a 28-byte checkpoint allocated %d bytes", n, got)
		}
	}
	// The bound is exact: three empty keys fill 27 bytes.
	entries := make([]byte, 27)
	if _, keys, _, err := decodeCheckpoint(withCRC(checkpointBody(1, 3, entries))); err != nil || len(keys) != 3 {
		t.Fatalf("three empty keys: %d keys, err %v", len(keys), err)
	}
}

// FuzzReadCheckpoint: decoding any checkpoint body never panics, and a
// body that decodes holds pairs that WriteCheckpoint writes back to a
// file that decodes to the same seq and pairs. The fuzzer supplies the
// bytes before the CRC and the harness appends a valid CRC, so that
// mutations reach the entry decoder instead of failing the checksum.
func FuzzReadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	for i, pairs := range [][]uint64{nil, {1}, {2, 3, 5, 8}} {
		n := len(pairs)
		if _, err := WriteCheckpoint(dir, uint64(i), n, func(emit func(bitstr.String, uint64)) {
			for _, p := range pairs {
				emit(testKey(int(p)), p<<40)
			}
		}); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(checkpointPath(dir, uint64(i)))
		if err != nil {
			f.Fatal(err)
		}
		seq, keys, values, err := decodeCheckpoint(raw)
		if err != nil || seq != uint64(i) || len(keys) != n {
			f.Fatalf("checkpoint %d: seq %d, %d keys, err %v", i, seq, len(keys), err)
		}
		for j, p := range pairs {
			if !bitstr.Equal(keys[j], testKey(int(p))) || values[j] != p<<40 {
				f.Fatalf("checkpoint %d pair %d: got (%v, %d)", i, j, keys[j], values[j])
			}
		}
		f.Add(raw[:len(raw)-4])
	}
	f.Add(checkpointBody(1, 1<<20, nil))
	f.Add(checkpointBody(2, 3, make([]byte, 27)))
	f.Fuzz(func(t *testing.T, body []byte) {
		seq, keys, values, err := decodeCheckpoint(withCRC(body))
		if err != nil {
			return
		}
		dir := t.TempDir()
		if _, err := WriteCheckpoint(dir, seq, len(keys), func(emit func(bitstr.String, uint64)) {
			for i, k := range keys {
				emit(k, values[i])
			}
		}); err != nil {
			t.Fatalf("writing the decoded pairs: %v", err)
		}
		seq2, keys2, values2, err := readCheckpoint(checkpointPath(dir, seq))
		if err != nil {
			t.Fatalf("reading the rewritten checkpoint: %v", err)
		}
		if seq2 != seq || !slices.Equal(values2, values) {
			t.Fatalf("rewritten checkpoint: seq %d values %v, want %d %v", seq2, values2, seq, values)
		}
		checkKeys(t, "rewritten checkpoint", keys2, keys)
	})
}

// FuzzDecodePayload: decoding any bytes as a record payload never
// panics, and a payload that decodes re-encodes to one that decodes to
// the same epoch: decodePayload(appendPayload(decodePayload(p))) =
// decodePayload(p). Bytes need not round-trip, since a key's padding
// bits are not read.
func FuzzDecodePayload(f *testing.F) {
	for _, ep := range []Epoch{
		{Seq: 1},
		{Seq: 7, Inserts: []bitstr.String{testKey(1), testKey(2)}, Values: []uint64{3, 1 << 63}},
		{Seq: 9, Deletes: []bitstr.String{testKey(4), bitstr.Empty}},
		{Seq: 1 << 40, Inserts: []bitstr.String{testKey(5)}, Values: []uint64{0}, Deletes: []bitstr.String{testKey(5)}},
	} {
		p, err := appendPayload(nil, ep.Seq, ep.Inserts, ep.Values, ep.Deletes)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add(make([]byte, payloadFixedSize))
	f.Fuzz(func(t *testing.T, p []byte) {
		e, err := decodePayload(p)
		if err != nil {
			return
		}
		q, err := appendPayload(nil, e.Seq, e.Inserts, e.Values, e.Deletes)
		if err != nil {
			t.Fatalf("re-encoding a decoded payload: %v", err)
		}
		again, err := decodePayload(q)
		if err != nil {
			t.Fatalf("decoding a re-encoded payload: %v", err)
		}
		if !sameEpoch(e, again) {
			t.Fatalf("payload decodes to %+v, its re-encoding to %+v", e, again)
		}
	})
}

// sameEpoch compares two decoded epochs key by key.
func sameEpoch(a, b Epoch) bool {
	sameKeys := func(x, y []bitstr.String) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !bitstr.Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	return a.Seq == b.Seq && sameKeys(a.Inserts, b.Inserts) && sameKeys(a.Deletes, b.Deletes) && slices.Equal(a.Values, b.Values)
}
