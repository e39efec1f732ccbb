// Package restart is the crash-restart chaos harness for the
// durability layer. A parent process repeatedly spawns a child serving
// process, lets it run for a random interval, SIGKILLs it at whatever
// point it happens to be in — mid-epoch, mid-append, mid-checkpoint —
// and then verifies that recovery from the write-ahead log yields a
// state *bit-identical* to a synchronous oracle: every acknowledged
// operation present with its exact value, nothing invented, and of the
// unacknowledged operations in flight at the kill exactly a FIFO prefix.
//
// The protocol that makes exact verification possible:
//
//   - Operations are a pure function of (seed, index) — OpAt — so the
//     parent and child agree on the workload without shipping it.
//   - The child submits in op order from one goroutine, keeping a
//     window of childWindow writes in flight so that write epochs (and
//     WAL records) hold several ops of both kinds and the kill lands
//     inside mixed records. It journals its progress in an O_APPEND ops
//     log: an "I i" line lands before op i is submitted, an "A i" line
//     after the server acknowledges it. SIGKILL preserves the OS page
//     cache, so these plain write(2)s — like the WAL's own — survive the
//     kill.
//   - Ops enter the server's write FIFO in op order and every write
//     epoch is a prefix of that FIFO, serially equivalent to its ops in
//     order; the log holds whole epochs. So the recovered state must
//     equal oracle(ops[:m]) for some m with acks ≤ m ≤ intents — a
//     search over at most childWindow+1 prefixes, not interleavings.
//   - After each kill the parent resolves which m it was and records it
//     (the resolved file); the next child resumes at exactly op m, so
//     the oracle prefix stays exact across any number of crashes.
//
// Both the repo's crash-restart test and pimbench -restart-chaos drive
// this package; they differ only in how the child process is spawned.
package restart

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/serve"
	"github.com/pimlab/pimtrie/internal/wal"
)

const (
	opsFile      = "ops.log"     // child journal: "I i" / "A i" lines
	resolvedFile = "resolved"    // parent verdict: ops 0..R-1 are canonical
	errFile      = "child-error" // child writes its failure here before exiting
	walSubdir    = "wal"         // the WAL + checkpoints live below the harness dir

	// childCheckpointEvery keeps checkpoints in the blast radius: with
	// epochs this small a multi-round chaos run crosses several
	// checkpoint+prune cycles, so kills land inside them too.
	childCheckpointEvery = 16

	// childWindow is the number of writes the child keeps in flight.
	childWindow = 16
)

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keyOf is the key namespace of a chaos run: op i's insert key. Lengths
// vary 16..55 bits so recovery crosses the trie's variable-length
// paths; occasional collisions (overwrites) are intended.
func keyOf(seed uint64, i int) bitstr.String {
	h := mix(seed ^ mix(uint64(i)))
	return bitstr.FromUint64(h, 16+int(h>>58)%40)
}

// OpAt returns chaos op i: mostly inserts of fresh keys, every fifth
// op a delete aimed at some earlier op's key (which may or may not be
// present — the oracle applies the same rule, so either way is exact).
func OpAt(seed uint64, i int) (op uint8, key bitstr.String, value uint64) {
	h := mix(seed ^ mix(uint64(i)*2+1))
	if i >= 5 && i%5 == 4 {
		return wal.OpDelete, keyOf(seed, int(h%uint64(i))), 0
	}
	return wal.OpInsert, keyOf(seed, i), h
}

// applyOp folds op i into an oracle state.
func applyOp(state map[string]uint64, seed uint64, i int) {
	op, k, v := OpAt(seed, i)
	if op == wal.OpInsert {
		state[k.String()] = v
	} else {
		delete(state, k.String())
	}
}

// Oracle returns the exact dictionary contents after ops 0..n-1.
func Oracle(seed uint64, n int) map[string]uint64 {
	state := map[string]uint64{}
	for i := 0; i < n; i++ {
		applyOp(state, seed, i)
	}
	return state
}

func dump(snap *pimtrie.Snapshot) map[string]uint64 {
	out := map[string]uint64{}
	snap.WalkKeys(func(k bitstr.String, v uint64) { out[k.String()] = v })
	return out
}

// diffStates renders a compact mismatch report for error messages.
func diffStates(got, want map[string]uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovered %d keys, oracle %d", len(got), len(want))
	shown := 0
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			fmt.Fprintf(&b, "; key %s: got (%d,%v) want %d", k, gv, ok, v)
			if shown++; shown == 3 {
				break
			}
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			fmt.Fprintf(&b, "; extra key %s=%d", k, v)
			if shown++; shown >= 6 {
				break
			}
		}
	}
	return b.String()
}

func readResolved(dir string) (int, error) {
	b, err := os.ReadFile(filepath.Join(dir, resolvedFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil || n < 0 {
		return 0, fmt.Errorf("restart: corrupt resolved file %q", b)
	}
	return n, nil
}

func writeResolved(dir string, n int) error {
	tmp := filepath.Join(dir, resolvedFile+".tmp")
	if err := os.WriteFile(tmp, []byte(strconv.Itoa(n)), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, resolvedFile))
}

// readOpsLog returns the largest journaled intent and ack indices
// (-1 when none). The journal only grows, so maxima are global.
func readOpsLog(dir string) (maxIntent, maxAck int, err error) {
	maxIntent, maxAck = -1, -1
	b, err := os.ReadFile(filepath.Join(dir, opsFile))
	if errors.Is(err, os.ErrNotExist) {
		return maxIntent, maxAck, nil
	}
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		// The final line can itself be torn by the kill; ignore anything
		// unparsable — a torn "I i" just means op i never got submitted.
		var tag byte
		var i int
		if n, _ := fmt.Sscanf(line, "%c %d", &tag, &i); n != 2 {
			continue
		}
		switch tag {
		case 'I':
			if i > maxIntent {
				maxIntent = i
			}
		case 'A':
			if i > maxAck {
				maxAck = i
			}
		}
	}
	return maxIntent, maxAck, nil
}

// RunChild is the chaos child body. It recovers the durable server
// from dir (verifying the recovered state against the oracle prefix
// the parent resolved), then submits ops in order forever, childWindow
// of them in flight — journaling each intent before submit and each
// ack, in op order, after — until the parent kills it. On any error it
// writes the child-error marker so the parent can distinguish a harness
// bug from a chaos kill.
func RunChild(dir string, seed uint64, policy wal.SyncPolicy, newIndex func() *pimtrie.Index) error {
	fail := func(err error) error {
		os.WriteFile(filepath.Join(dir, errFile), []byte(err.Error()), 0o644)
		return err
	}
	start, err := readResolved(dir)
	if err != nil {
		return fail(err)
	}
	srv, _, err := serve.OpenDurable(filepath.Join(dir, walSubdir),
		wal.Options{Policy: policy, Interval: 2 * time.Millisecond},
		serve.Options{Durable: &serve.Durable{CheckpointEvery: childCheckpointEvery}},
		newIndex)
	if err != nil {
		return fail(fmt.Errorf("restart child: recover: %w", err))
	}
	// Bit-identical check on the child side too: recovery must
	// reproduce exactly the resolved oracle prefix.
	if got, want := dump(srv.Snapshot()), Oracle(seed, start); !statesEqual(got, want) {
		return fail(fmt.Errorf("restart child: recovered state != oracle(%d): %s", start, diffStates(got, want)))
	}
	j, err := os.OpenFile(filepath.Join(dir, opsFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fail(err)
	}
	var inflight [childWindow]func() error // op i's wait, at slot i % childWindow
	for i := start; ; i++ {
		if wait := inflight[i%childWindow]; wait != nil {
			acked := i - childWindow
			if err := wait(); err != nil {
				return fail(fmt.Errorf("restart child: op %d: %w", acked, err))
			}
			if _, err := fmt.Fprintf(j, "A %d\n", acked); err != nil {
				return fail(err)
			}
		}
		op, k, v := OpAt(seed, i)
		if _, err := fmt.Fprintf(j, "I %d\n", i); err != nil {
			return fail(err)
		}
		switch op {
		case wal.OpInsert:
			inflight[i%childWindow] = srv.InsertAsync([]serve.Key{k}, []uint64{v}).Wait
		case wal.OpDelete:
			f := srv.DeleteAsync(k)
			inflight[i%childWindow] = func() error { _, err := f.Wait(); return err }
		}
	}
}

func statesEqual(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// VerifyRound runs after a kill: recover the WAL directory into a
// fresh index and require the result be bit-identical to the oracle at
// one of the prefixes the journal permits — every acked op, plus any
// FIFO prefix of the ops that were in flight. The first matching prefix
// becomes the resolved count the next child resumes from (two prefixes
// that match hold the same state, so either is exact). mixed is the
// number of replayed records that held both an insert and a delete
// section: the records this harness exists to kill.
func VerifyRound(dir string, seed uint64, newIndex func() *pimtrie.Index) (resolved, mixed int, err error) {
	fail := func(err error) (int, int, error) { return 0, 0, err }
	maxIntent, maxAck, err := readOpsLog(dir)
	if err != nil {
		return fail(err)
	}
	prior, err := readResolved(dir)
	if err != nil {
		return fail(err)
	}
	lo := maxAck + 1 // every acked op MUST be present
	if lo < prior {  // resolution never goes backward
		lo = prior
	}
	hi := maxIntent + 1 // beyond the last intent nothing can exist
	if hi < lo {
		return fail(fmt.Errorf("restart: journal regressed: maxIntent %d < resolved floor %d", maxIntent, lo))
	}

	info, err := wal.Recover(filepath.Join(dir, walSubdir))
	if err != nil {
		return fail(fmt.Errorf("restart: recover: %w", err))
	}
	for _, e := range info.Epochs {
		if len(e.Inserts) > 0 && len(e.Deletes) > 0 {
			mixed++
		}
	}
	ix := newIndex()
	if err := serve.Restore(ix, info); err != nil {
		return fail(fmt.Errorf("restart: replay: %w", err))
	}
	got := dump(ix.Snapshot())

	oracle := Oracle(seed, lo)
	for m := lo; m <= hi; m++ {
		if m > lo {
			applyOp(oracle, seed, m-1)
		}
		if statesEqual(got, oracle) {
			if err := writeResolved(dir, m); err != nil {
				return fail(err)
			}
			return m, mixed, nil
		}
	}
	return fail(fmt.Errorf("restart: recovered state matches no legal prefix in [%d,%d]: %s",
		lo, hi, diffStates(got, Oracle(seed, hi))))
}

// Config parameterizes a parent chaos run.
type Config struct {
	// Dir is the harness directory (journal, resolved file, WAL).
	Dir string
	// Seed fixes the op sequence and the kill schedule.
	Seed uint64
	// Rounds is the number of spawn/kill/verify cycles (default 6).
	Rounds int
	// MinRun/MaxRun bound the child's lifetime before the SIGKILL
	// (defaults 80ms/400ms — long enough to get past process startup
	// sometimes, short enough to land kills inside it other times).
	MinRun, MaxRun time.Duration
	// NewIndex builds the fresh index recovery replays into; must match
	// the child's own constructor.
	NewIndex func() *pimtrie.Index
	// Logf, when set, receives per-round progress lines.
	Logf func(format string, args ...any)
}

// RunParent drives the chaos loop: spawn the child, let it run for a
// random interval, SIGKILL it, verify recovery bit-exactly, repeat.
// spawn must return an unstarted command whose process serves from
// cfg.Dir (RunChild with the same seed and index constructor). It
// returns the final resolved op count — how much acknowledged history
// survived all the kills.
func RunParent(cfg Config, spawn func(dir string) *exec.Cmd) (int, error) {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 6
	}
	if cfg.MinRun <= 0 {
		cfg.MinRun = 80 * time.Millisecond
	}
	if cfg.MaxRun <= cfg.MinRun {
		cfg.MaxRun = cfg.MinRun + 320*time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	r := rand.New(rand.NewSource(int64(cfg.Seed)))
	resolved, stalls, mixedRecords := 0, 0, 0
	for round := 1; round <= cfg.Rounds; round++ {
		cmd := spawn(cfg.Dir)
		var out bytes.Buffer
		if cmd.Stdout == nil {
			cmd.Stdout = &out
		}
		if cmd.Stderr == nil {
			cmd.Stderr = &out
		}
		if err := cmd.Start(); err != nil {
			return 0, fmt.Errorf("restart: round %d: start child: %w", round, err)
		}
		life := cfg.MinRun + time.Duration(r.Int63n(int64(cfg.MaxRun-cfg.MinRun)))
		time.Sleep(life)
		cmd.Process.Kill()
		cmd.Wait() // exit status is the kill; the journal is the truth

		if b, rerr := os.ReadFile(filepath.Join(cfg.Dir, errFile)); rerr == nil {
			return 0, fmt.Errorf("restart: round %d: child failed before the kill: %s", round, b)
		}
		m, mixed, err := VerifyRound(cfg.Dir, cfg.Seed, cfg.NewIndex)
		if err != nil {
			return 0, fmt.Errorf("restart: round %d (killed after %v): %w\nchild output:\n%s",
				round, life.Round(time.Millisecond), err, out.String())
		}
		mixedRecords += mixed
		cfg.Logf("restart round %d: killed after %v, %d ops verified bit-identical (+%d), %d mixed records replayed",
			round, life.Round(time.Millisecond), m, m-resolved, mixed)
		if m == resolved {
			stalls++
		} else {
			stalls = 0
		}
		resolved = m
		if stalls >= 4 {
			return 0, fmt.Errorf("restart: no progress across %d consecutive rounds — child never serves (last output:\n%s)", stalls, out.String())
		}
	}
	if resolved > 0 && mixedRecords == 0 {
		return 0, fmt.Errorf("restart: %d ops resolved but no replayed record held both inserts and deletes — the child is not keeping writes in flight", resolved)
	}
	return resolved, nil
}
