package main

// Front doors. A workload drives the stack through exactly one of them —
// pimtrie.Index, serve.Server or shard.Router — and all three answer the
// same five batch operations and the same single-key requests, so the
// phases in phases.go are written once against the door interface.

import (
	"fmt"
	"os"
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/serve"
	"github.com/pimlab/pimtrie/internal/shard"
	"github.com/pimlab/pimtrie/internal/wal"
)

type (
	Key = pimtrie.Key
	KV  = pimtrie.KV
)

// waiter blocks until one single-key request is answered. A get returns
// the value and whether the key was found; an insert returns found=true;
// a delete returns whether the key was present.
type waiter func() (val uint64, found bool, err error)

type door interface {
	LCP(keys []Key) ([]int, error)
	Get(keys []Key) ([]uint64, []bool, error)
	Insert(keys []Key, vals []uint64) error
	Delete(keys []Key) ([]bool, error)
	Subtrees(prefixes []Key) ([][]KV, error)

	GetAsync(k Key) waiter
	InsertAsync(k Key, v uint64) waiter
	DeleteAsync(k Key) waiter

	// Model returns the cumulative PIM Model counters of each index
	// behind the door; exact once outstanding requests have been waited.
	Model() []pim.Metrics
	// ServeStats sums the serving counters of every server behind the
	// door (zero for the index door).
	ServeStats() serve.Stats
	Close() error
}

// indexDoor calls the index directly; its "asynchronous" requests run on
// the caller's goroutine and return an already-answered waiter. While tr
// is set (the batch phase of a traced pass) every batch call is made as
// PrepareBatch plus the *Prepared form, each in its own span, and the two
// sides are summed per op in split.
type indexDoor struct {
	ix    *pimtrie.Index
	tr    *tracer
	split map[string]*splitTimes
}

// splitTimes sums one op's batch calls, split at the PrepareBatch line.
type splitTimes struct {
	prepare, execute time.Duration
	keys             int
}

func (d *indexDoor) prepared(op string, keys []Key, execute func(p *pimtrie.PreparedBatch)) {
	d.tr.begin("prepare")
	p := d.ix.PrepareBatch(keys)
	prepare := d.tr.end()
	d.tr.begin("execute")
	execute(p)
	st := d.split[op]
	if st == nil {
		st = &splitTimes{}
		d.split[op] = st
	}
	st.prepare += prepare
	st.execute += d.tr.end()
	st.keys += len(keys)
}

func (d *indexDoor) LCP(keys []Key) (out []int, err error) {
	if d.tr != nil {
		d.prepared("lcp", keys, func(p *pimtrie.PreparedBatch) { out = d.ix.LCPPrepared(p) })
		return out, nil
	}
	return d.ix.LCP(keys), nil
}

func (d *indexDoor) Get(keys []Key) (vals []uint64, found []bool, err error) {
	if d.tr != nil {
		d.prepared("get", keys, func(p *pimtrie.PreparedBatch) { vals, found = d.ix.GetPrepared(p) })
		return vals, found, nil
	}
	vals, found = d.ix.Get(keys)
	return vals, found, nil
}

func (d *indexDoor) Insert(keys []Key, vals []uint64) error {
	if d.tr != nil {
		d.prepared("insert", keys, func(p *pimtrie.PreparedBatch) { d.ix.InsertPrepared(p, vals) })
		return nil
	}
	d.ix.Insert(keys, vals)
	return nil
}

func (d *indexDoor) Delete(keys []Key) (found []bool, err error) {
	if d.tr != nil {
		d.prepared("delete", keys, func(p *pimtrie.PreparedBatch) { found = d.ix.DeletePrepared(p) })
		return found, nil
	}
	return d.ix.Delete(keys), nil
}

func (d *indexDoor) Subtrees(prefixes []Key) (out [][]KV, err error) {
	if d.tr != nil {
		d.prepared("subtree", prefixes, func(p *pimtrie.PreparedBatch) { out = d.ix.SubtreesPrepared(p) })
		return out, nil
	}
	return d.ix.Subtrees(prefixes), nil
}

func answered(val uint64, found bool) waiter {
	return func() (uint64, bool, error) { return val, found, nil }
}

func (d *indexDoor) GetAsync(k Key) waiter {
	vals, found := d.ix.Get([]Key{k})
	return answered(vals[0], found[0])
}

func (d *indexDoor) InsertAsync(k Key, v uint64) waiter {
	d.ix.Insert([]Key{k}, []uint64{v})
	return answered(0, true)
}

func (d *indexDoor) DeleteAsync(k Key) waiter {
	return answered(0, d.ix.Delete([]Key{k})[0])
}

func (d *indexDoor) Model() []pim.Metrics    { return []pim.Metrics{d.ix.Metrics()} }
func (d *indexDoor) ServeStats() serve.Stats { return serve.Stats{} }
func (d *indexDoor) Close() error            { return nil }

// serverDoor fronts one serve.Server. A durable server owns its log and
// closes it.
type serverDoor struct {
	srv *serve.Server
}

func (d *serverDoor) LCP(keys []Key) ([]int, error) { return d.srv.LCPAsync(keys...).Wait() }

func (d *serverDoor) Get(keys []Key) ([]uint64, []bool, error) {
	return d.srv.GetAsync(keys...).Wait()
}

func (d *serverDoor) Insert(keys []Key, vals []uint64) error {
	return d.srv.InsertAsync(keys, vals).Wait()
}

func (d *serverDoor) Delete(keys []Key) ([]bool, error) { return d.srv.DeleteAsync(keys...).Wait() }

func (d *serverDoor) Subtrees(prefixes []Key) ([][]KV, error) {
	return d.srv.SubtreeAsync(prefixes...).Wait()
}

func (d *serverDoor) GetAsync(k Key) waiter { return getWaiter(d.srv.GetAsync(k)) }

func (d *serverDoor) InsertAsync(k Key, v uint64) waiter {
	return insertWaiter(d.srv.InsertAsync([]Key{k}, []uint64{v}))
}

func (d *serverDoor) DeleteAsync(k Key) waiter { return deleteWaiter(d.srv.DeleteAsync(k)) }

// The server's and the router's futures have the same Wait methods; these
// turn a one-key future of either into a waiter.
func getWaiter(f interface {
	Wait() ([]uint64, []bool, error)
}) waiter {
	return func() (uint64, bool, error) {
		vals, found, err := f.Wait()
		if err != nil {
			return 0, false, err
		}
		return vals[0], found[0], nil
	}
}

func insertWaiter(f interface{ Wait() error }) waiter {
	return func() (uint64, bool, error) { return 0, true, f.Wait() }
}

func deleteWaiter(f interface{ Wait() ([]bool, error) }) waiter {
	return func() (uint64, bool, error) {
		found, err := f.Wait()
		if err != nil {
			return 0, false, err
		}
		return 0, found[0], nil
	}
}

func (d *serverDoor) Model() []pim.Metrics    { return []pim.Metrics{d.srv.ModelMetrics()} }
func (d *serverDoor) ServeStats() serve.Stats { return d.srv.Stats() }

func (d *serverDoor) Close() error {
	d.srv.Close()
	return d.srv.DurabilityErr()
}

// routerDoor fronts a shard.Router.
type routerDoor struct {
	r *shard.Router
}

func (d *routerDoor) LCP(keys []Key) ([]int, error)            { return d.r.LCP(keys) }
func (d *routerDoor) Get(keys []Key) ([]uint64, []bool, error) { return d.r.Get(keys) }
func (d *routerDoor) Insert(keys []Key, vals []uint64) error   { return d.r.Insert(keys, vals) }
func (d *routerDoor) Delete(keys []Key) ([]bool, error)        { return d.r.Delete(keys) }
func (d *routerDoor) Subtrees(prefixes []Key) ([][]KV, error)  { return d.r.Subtrees(prefixes) }

func (d *routerDoor) GetAsync(k Key) waiter { return getWaiter(d.r.GetAsync(k)) }

func (d *routerDoor) InsertAsync(k Key, v uint64) waiter {
	return insertWaiter(d.r.InsertAsync([]Key{k}, []uint64{v}))
}

func (d *routerDoor) DeleteAsync(k Key) waiter { return deleteWaiter(d.r.DeleteAsync(k)) }

func (d *routerDoor) Model() []pim.Metrics { return d.r.ShardMetrics() }

func (d *routerDoor) ServeStats() serve.Stats {
	var sum serve.Stats
	for _, s := range d.r.ShardServerStats() {
		for op := range s.Requests {
			sum.Requests[op] += s.Requests[op]
			sum.KeysRequested[op] += s.KeysRequested[op]
			sum.KeysExecuted[op] += s.KeysExecuted[op]
		}
		sum.ReadEpochs += s.ReadEpochs
		sum.WriteEpochs += s.WriteEpochs
		sum.DedupedKeys += s.DedupedKeys
	}
	return sum
}

func (d *routerDoor) Close() error {
	d.r.Close()
	return nil
}

// stack is an opened workload: the door plus what only the harness
// needs to know about what is behind it.
type stack struct {
	door
	open    bool              // the door has not been closed yet
	systems []*pim.System     // every simulated system behind the door
	reg     *metrics.Registry // nil unless the pass is traced
	router  *shard.Router     // doorRouter only
	walDir  string            // doorDurable only
	w       *workloadDef
}

// systemSeed fixes the program's own randomized placement. --seed makes
// the inputs; the program receives only those.
const systemSeed = 1

func (w *workloadDef) indexOptions() pimtrie.Options {
	return pimtrie.Options{Seed: systemSeed, Recoverable: w.kind == doorDurable}
}

// serveOptions is the zero value, as a user gets by default; a traced pass
// adds a registry so the serve histograms can be read back.
func serveOptions(reg *metrics.Registry) serve.Options {
	return serve.Options{Metrics: reg}
}

func walOptions(dir string, reg *metrics.Registry) wal.Options {
	return wal.Options{Dir: dir, Policy: wal.SyncEveryEpoch, Metrics: reg}
}

// checkpointEvery is the write epochs between checkpoints. serve's
// default of 256 keeps the checkpointer busy without a break here (a
// one-key put is a write epoch, a checkpoint of 100 000 keys costs a
// second of the one processor), and the rate then measures how the
// scheduler splits that processor; at 2048 a phase holds one or two
// checkpoints and the request path shows.
const checkpointEvery = 2048

// openStack builds the workload's stack holding keys[i] → vals[i]. The
// index and plain-server doors bulk-load; the router and the durable server
// are loaded through their own Insert, the router because it owns its
// indexes and the durable server because only logged writes survive the
// restart that ends its pass.
func openStack(w *workloadDef, keys []Key, vals []uint64, batch int, scratch string, traced bool) (*stack, error) {
	st := &stack{w: w}
	if traced {
		st.reg = metrics.NewRegistry()
	}
	pim.SetSystemHook(func(s *pim.System) { st.systems = append(st.systems, s) })
	defer pim.SetSystemHook(nil)

	preload := false
	switch w.kind {
	case doorIndex:
		ix := pimtrie.New(w.p, w.indexOptions())
		ix.Load(keys, vals)
		st.door = &indexDoor{ix: ix}
	case doorServer:
		ix := pimtrie.New(w.p, w.indexOptions())
		ix.Load(keys, vals)
		st.door = &serverDoor{srv: serve.NewServer(ix, serveOptions(st.reg))}
	case doorDurable:
		dir, err := os.MkdirTemp(scratch, "wal-")
		if err != nil {
			return nil, fmt.Errorf("durable_write: %w", err)
		}
		st.walDir = dir
		log, err := wal.Open(walOptions(dir, st.reg))
		if err != nil {
			st.release()
			return nil, fmt.Errorf("durable_write: open log: %w", err)
		}
		opts := serveOptions(st.reg)
		opts.Durable = &serve.Durable{Log: log, CheckpointEvery: checkpointEvery, OwnLog: true}
		st.door = &serverDoor{srv: serve.NewServer(pimtrie.New(w.p, w.indexOptions()), opts)}
		preload = true
	case doorRouter:
		cfg := shard.Config{
			Shards: 2, Modules: w.p,
			Index:   w.indexOptions(),
			Serve:   serveOptions(nil),
			Metrics: st.reg,
		}
		st.router = shard.New(cfg)
		st.door = &routerDoor{r: st.router}
		preload = true
	}
	st.open = true
	if preload {
		for lo := 0; lo < len(keys); lo += batch {
			hi := min(lo+batch, len(keys))
			if err := st.Insert(keys[lo:hi], vals[lo:hi]); err != nil {
				st.release()
				return nil, fmt.Errorf("%s: preload: %w", w.Name, err)
			}
		}
	}
	return st, nil
}

// migrationInterval is shard.Migration's default sampling interval.
const migrationInterval = 100 * time.Millisecond

// migrate runs the router's hot-range migration policy on the harness's
// clock until the returned function is called, which waits for a cycle
// in flight. The policy is the router's own (Router.Rebalance, what its
// background loop calls every interval); only the clock is the
// harness's, so that migration runs under the warm-up and the sync phase
// and never under the batch phase, whose model counters must bracket the
// batch calls alone, nor under the pipelined phase (pass.go says why).
// stop returns the first error the policy reported. On the other doors
// migrate does nothing.
func (st *stack) migrate() (stop func() error) {
	if st.router == nil {
		return func() error { return nil }
	}
	quit, done := make(chan struct{}), make(chan error, 1)
	go func() {
		tick := time.NewTicker(migrationInterval)
		defer tick.Stop()
		var first error
		for {
			select {
			case <-quit:
				done <- first
				return
			case <-tick.C:
				if _, err := st.router.Rebalance(); err != nil && first == nil {
					first = fmt.Errorf("router rebalance: %w", err)
				}
			}
		}
	}()
	return func() error {
		close(quit)
		return <-done
	}
}

// reopen restarts a durable stack from its directory: the server has
// been closed, and what comes back is whatever the log and checkpoints
// hold. With a tracer the restart is made from its public pieces so each
// gets a span; the untraced path is serve.OpenDurable itself.
func (st *stack) reopen(tr *tracer) (*wal.RecoveryInfo, error) {
	st.stopSystems()
	pim.SetSystemHook(func(s *pim.System) { st.systems = append(st.systems, s) })
	defer pim.SetSystemHook(nil)
	newIndex := func() *pimtrie.Index { return pimtrie.New(st.w.p, st.w.indexOptions()) }
	opts := serveOptions(st.reg)
	opts.Durable = &serve.Durable{CheckpointEvery: checkpointEvery}

	if tr == nil {
		srv, info, err := serve.OpenDurable(st.walDir, walOptions("", st.reg), opts, newIndex)
		if err != nil {
			return nil, err
		}
		st.door, st.open = &serverDoor{srv: srv}, true
		return info, nil
	}

	tr.begin("recover")
	defer tr.end()
	tr.begin("wal.Recover")
	info, err := wal.Recover(st.walDir)
	tr.end()
	if err != nil {
		return nil, err
	}
	ix := newIndex()
	tr.begin("serve.Restore")
	err = serve.Restore(ix, info)
	tr.end()
	if err != nil {
		return nil, err
	}
	wopts := walOptions(st.walDir, st.reg)
	wopts.NextSeq = info.LastSeq + 1
	log, err := wal.Open(wopts)
	if err != nil {
		return nil, err
	}
	opts.Durable.Log, opts.Durable.OwnLog = log, true
	opts.Durable.PendingEpochs, opts.Durable.Recovery = len(info.Epochs), info
	st.door, st.open = &serverDoor{srv: serve.NewServer(ix, opts)}, true
	return info, nil
}

// stopSystems stops the worker goroutines of the simulated systems now
// rather than at their next collection. The door must be closed.
func (st *stack) stopSystems() {
	for _, sys := range st.systems {
		sys.Close()
	}
	st.systems = nil
}

// Close closes the door once; reopen opens a new one.
func (st *stack) Close() error {
	if !st.open {
		return nil
	}
	st.open = false
	return st.door.Close()
}

// release closes the stack if an error path left it open, then frees
// what a closed stack still holds: worker goroutines and the log
// directory.
func (st *stack) release() {
	st.Close()
	st.stopSystems()
	if st.walDir != "" {
		os.RemoveAll(st.walDir)
	}
}
