package serve

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/pim"
)

// waveRecorder submits a wave of one-key Gets from inside the index,
// on the first phase the executor opens once srv is set: the wave
// arrives while epoch 1 runs.
type waveRecorder struct {
	srv   atomic.Pointer[Server]
	keys  []Key
	fired bool // executor goroutine only
	futs  []*GetFuture
}

func (r *waveRecorder) BeginPhase(string) {
	srv := r.srv.Load()
	if srv == nil || r.fired {
		return
	}
	r.fired = true
	for _, k := range r.keys {
		r.futs = append(r.futs, srv.GetAsync(k))
		// Leave room for any other goroutine that would form an epoch
		// from part of the wave.
		time.Sleep(50 * time.Microsecond)
	}
}

func (r *waveRecorder) EndPhase()                  {}
func (r *waveRecorder) RecordRound(pim.RoundTrace) {}
func (r *waveRecorder) RecordCPUWork(int)          {}

// TestEpochTakesWholeWave pins the one-loop schedule: requests that
// arrive while epoch k runs all land in epoch k+1, which forms only
// after k has settled — two epochs, the second holding the whole wave,
// at any GOMAXPROCS.
func TestEpochTakesWholeWave(t *testing.T) {
	const wave = 64
	keys := make([]Key, wave+1)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = epochKey(i)
		vals[i] = uint64(100 + i)
	}
	ix := pimtrie.New(4, pimtrie.Options{Seed: 11})
	ix.Load(keys, vals)
	rec := &waveRecorder{keys: keys[1:]}
	ix.SetRecorder(rec)
	srv := NewServer(ix, Options{RecordHistory: true})
	rec.srv.Store(srv)

	if v, found, err := srv.GetAsync(keys[0]).Wait(); err != nil || !found[0] || v[0] != vals[0] {
		t.Fatalf("epoch 1 Get = %d,%v,%v, want %d", v, found, err, vals[0])
	}
	if len(rec.futs) != wave {
		t.Fatalf("recorder submitted %d Gets during epoch 1, want %d", len(rec.futs), wave)
	}
	for i, f := range rec.futs {
		v, found, err := f.Wait()
		if err != nil || !found[0] || v[0] != vals[i+1] {
			t.Fatalf("wave Get %d = %v,%v,%v, want %d", i, v, found, err, vals[i+1])
		}
	}
	srv.Close()

	hist := srv.History()
	if len(hist) != 2 {
		t.Fatalf("%d epochs committed, want 2", len(hist))
	}
	if n0, n1 := len(hist[0].Ops), len(hist[1].Ops); n0 != 1 || n1 != wave {
		t.Fatalf("epochs hold %d and %d calls, want 1 and %d", n0, n1, wave)
	}
	if st := srv.Stats(); st.ReadEpochs != 2 {
		t.Fatalf("ReadEpochs = %d, want 2", st.ReadEpochs)
	}
}

// TestExecuteSettlesInline forms and runs, by hand on a server whose
// goroutines never started, the epochs of 64 interleaved reads and
// writes: every future of an epoch must be settled by the time execute
// returns.
func TestExecuteSettlesInline(t *testing.T) {
	const n = 32
	ix := pimtrie.New(4, pimtrie.Options{Seed: 11})
	ix.Load([]Key{epochKey(0), epochKey(1)}, []uint64{100, 101})
	s := newServer(ix, Options{})
	defer s.Close()

	var futs []*future
	for i := 0; i < n; i++ {
		k := epochKey(i % 4)
		switch i % 3 {
		case 0:
			futs = append(futs, s.GetAsync(k).f)
		case 1:
			futs = append(futs, s.LCPAsync(k).f)
		default:
			futs = append(futs, s.SubtreeAsync(k).f)
		}
		if i%2 == 0 {
			futs = append(futs, s.InsertAsync([]Key{epochKey(n + i)}, []uint64{uint64(i)}).f)
		} else {
			futs = append(futs, s.DeleteAsync(epochKey(i%4)).f)
		}
	}
	settled := 0
	for epoch, plan := 0, formNext(s); plan != nil; epoch, plan = epoch+1, formNext(s) {
		s.execute(plan)
		for i, c := range plan.calls {
			select {
			case <-c.fut.done:
				if c.fut.err != nil {
					t.Fatalf("epoch %d call %d: %v", epoch, i, c.fut.err)
				}
			default:
				t.Fatalf("epoch %d call %d unsettled after execute returned", epoch, i)
			}
		}
		settled += len(plan.calls)
	}
	if settled != len(futs) {
		t.Fatalf("%d calls settled in epochs, %d submitted", settled, len(futs))
	}
}

// TestServerAddsOneGoroutine asserts a plain server — no snapshot
// reads, no durability — runs on exactly one goroutine, and that Close
// stops it.
func TestServerAddsOneGoroutine(t *testing.T) {
	ix := pimtrie.New(4, pimtrie.Options{Seed: 11})
	ix.Load([]Key{epochKey(0)}, []uint64{100})
	// settle polls until the goroutine count holds still at want (or at
	// any value, for want < 0) and returns it.
	settle := func(want int) int {
		prev := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
			cur := runtime.NumGoroutine()
			if cur == prev && (want < 0 || cur == want) {
				return cur
			}
			prev = cur
		}
		return prev
	}
	base := settle(-1)
	srv := NewServer(ix, Options{})
	if _, _, err := srv.GetAsync(epochKey(0)).Wait(); err != nil {
		t.Fatal(err)
	}
	if got := settle(base + 1); got != base+1 {
		t.Fatalf("running server: %d goroutines, want %d (one more than before NewServer)", got, base+1)
	}
	srv.Close()
	if got := settle(base); got != base {
		t.Fatalf("after Close: %d goroutines, want %d", got, base)
	}
}
