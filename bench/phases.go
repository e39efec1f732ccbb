package main

// The measured phases every workload runs through its front door: a
// fixed-work batch phase from one caller, a sync phase of single-key
// requests with one outstanding, and a pipelined closed loop; plus the
// client model and the bookkeeping that lets every answer be checked.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
	"github.com/pimlab/pimtrie/internal/workload"
)

const (
	poolCycles  = 16 // pre-generated batch cycles, used round-robin
	subPrefixes = 64 // prefixes per Subtrees call
	subBits     = 12
	freshKeys   = 1024  // fresh keys the client cycles through; more than it ever has in flight
	minLive     = 8     // fresh keys the client keeps stored before it deletes
	hotRanges   = 16    // router_strong: ranges the stored keys are split into, one of them hot
	hotPeriod   = 20000 // router_strong: draws after which the next range becomes the hot one
)

// world is the key population of one pass and what every key should
// hold. Positions [0, n) are preloaded; the rest are the client's fresh
// keys. One client goroutine sends every request, so it alone writes the
// bookkeeping.
type world struct {
	keys    []Key
	n       int
	expect  []uint64 // value the key holds once every write to it is acknowledged
	present []bool   // whether it is stored
	dirty   []bool   // written during this pass: the read-back set
	// pending counts a key's unacknowledged writes and lastWrite is the
	// request number of its latest write; a get is checked only when no
	// write overlaps it.
	pending   []uint16
	lastWrite []uint32
	// position finds a stored key drawn from a stream by the address of
	// its first word: streams hand back elements of keys, never copies.
	position map[*uint64]int32

	cycles []cycle
}

// cycle is one round of the batch phase: four 4096-key calls and one
// 64-prefix scan.
type cycle struct {
	lcp, get, ins, sub []Key
	insVals            []uint64
}

func (c *cycle) keys() int { return len(c.lcp) + len(c.get) + 2*len(c.ins) + len(c.sub) }

// newWorld generates a pass's inputs from the seed alone.
func newWorld(seed int64, n, batch int) (*world, []uint64) {
	g := workload.New(seed)
	w := &world{n: n}
	w.keys = g.VarLen(n+freshKeys, 48, 192)
	vals := g.Values(n)
	total := len(w.keys)
	w.expect = make([]uint64, total)
	copy(w.expect, vals)
	w.present = make([]bool, total)
	for i := 0; i < n; i++ {
		w.present[i] = true
	}
	w.dirty = make([]bool, total)
	w.pending = make([]uint16, total)
	w.lastWrite = make([]uint32, total)
	w.position = make(map[*uint64]int32, n)
	stored := w.keys[:n]
	for i, k := range stored {
		w.position[&k.RawWords()[0]] = int32(i)
	}

	// One generator call per kind, sliced into cycles: RangeAttack sorts
	// the stored keys and Zipf permutes them on every call.
	half := batch / 2
	fresh := g.VarLen(poolCycles*batch, 48, 192)
	freshVals := g.Values(poolCycles * batch)
	prefixes := g.PrefixQueries(stored, poolCycles*half, 16)
	attacks := g.RangeAttack(stored, poolCycles*(batch-half), 24)
	gets := g.Zipf(stored, poolCycles*batch, 1.2)
	r := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	w.cycles = make([]cycle, poolCycles)
	for j := range w.cycles {
		c := &w.cycles[j]
		c.lcp = append(append([]Key(nil), prefixes[j*half:(j+1)*half]...), attacks[j*(batch-half):(j+1)*(batch-half)]...)
		c.get = gets[j*batch : (j+1)*batch]
		c.ins = fresh[j*batch : (j+1)*batch]
		c.insVals = freshVals[j*batch : (j+1)*batch]
		c.sub = make([]Key, subPrefixes)
		for i := range c.sub {
			c.sub[i] = stored[r.Intn(n)].Prefix(subBits)
		}
	}
	return w, vals
}

func (w *world) pos(k Key) int { return int(w.position[&k.RawWords()[0]]) }

// tally counts operations and the ones that failed: an error from the
// stack or an answer that differs from what the oracle or the
// acknowledged writes say it must be.
type tally struct {
	attempted, failed int
	firstFailure      string
}

func (t *tally) op() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

// batchTimes holds the batch phase's per-call durations.
type batchTimes struct {
	lcp, get, update, sub []time.Duration // update is one Insert plus its Delete
	wall                  time.Duration
	calls, keys, results  int // batch calls; keys carried; pairs returned by Subtrees
	// model sums the counters of every system behind the door over the
	// phase; the balances are the mean over those systems, each a PIM
	// system of its own (balance between shards is the router's
	// shard.load_imbalance, not the paper's bound).
	model                  pim.Metrics
	ioBalance, workBalance float64
}

// totalRounds sums the rounds of a door's systems.
func totalRounds(ms []pim.Metrics) (rounds int64) {
	for _, m := range ms {
		rounds += m.Rounds
	}
	return rounds
}

// batchPhase runs cycles rounds of the pool from this one goroutine. All
// replies are waited for, so the model counters read before and after
// bracket exactly this work.
func batchPhase(d door, w *world, cycles int, t *tally, tr *tracer) (batchTimes, error) {
	var bt batchTimes
	before := d.Model()
	start := time.Now()
	for i := 0; i < cycles; i++ {
		c := &w.cycles[i%poolCycles]
		tr.begin("cycle")
		timed := func(name string, call func() error) (time.Duration, error) {
			tr.begin(name)
			t0 := time.Now()
			err := call()
			el := time.Since(t0)
			tr.end()
			t.op()
			if err != nil {
				t.fail("%s batch: %v", name, err)
			}
			return el, err
		}
		el, err := timed("lcp", func() error { _, err := d.LCP(c.lcp); return err })
		if err != nil {
			return bt, err
		}
		bt.lcp = append(bt.lcp, el)
		el, err = timed("get", func() error { _, _, err := d.Get(c.get); return err })
		if err != nil {
			return bt, err
		}
		bt.get = append(bt.get, el)
		ins, err := timed("insert", func() error { return d.Insert(c.ins, c.insVals) })
		if err != nil {
			return bt, err
		}
		del, err := timed("delete", func() error { _, err := d.Delete(c.ins); return err })
		if err != nil {
			return bt, err
		}
		bt.update = append(bt.update, ins+del)
		el, err = timed("subtree", func() error {
			res, err := d.Subtrees(c.sub)
			for _, kvs := range res {
				bt.results += len(kvs)
			}
			return err
		})
		if err != nil {
			return bt, err
		}
		bt.sub = append(bt.sub, el)
		tr.end()
		bt.calls += 5
		bt.keys += c.keys()
	}
	bt.wall = time.Since(start)
	after := d.Model()
	for i := range after {
		delta := after[i].Sub(before[i])
		bt.model = bt.model.Add(delta)
		bt.ioBalance += delta.IOBalance() / float64(len(after))
		bt.workBalance += delta.WorkBalance() / float64(len(after))
	}
	return bt, nil
}

// checkCycle replays one cycle, untimed, against the sequential trie
// holding the preloaded pairs: LCP lengths, Get values, Subtrees pairs,
// and that every key just inserted is found by its Delete. It runs
// before any client has written, so the oracle is the whole truth.
func checkCycle(d door, c *cycle, oracle *trie.Trie, t *tally) error {
	lcps, err := d.LCP(c.lcp)
	if err != nil {
		return err
	}
	for i, q := range c.lcp {
		t.op()
		if want := oracle.LCPLen(q); lcps[i] != want {
			t.fail("LCP of query %d = %d, oracle says %d", i, lcps[i], want)
		}
	}
	vals, found, err := d.Get(c.get)
	if err != nil {
		return err
	}
	for i, q := range c.get {
		t.op()
		want, ok := oracle.Get(q)
		if found[i] != ok || (ok && vals[i] != want) {
			t.fail("Get of query %d = (%d, %v), oracle says (%d, %v)", i, vals[i], found[i], want, ok)
		}
	}
	subs, err := d.Subtrees(c.sub)
	if err != nil {
		return err
	}
	for i, p := range c.sub {
		t.op()
		want := oracle.SubtreeKeys(p)
		if !sameKVs(subs[i], want) {
			t.fail("Subtrees of prefix %d returned %d pairs, oracle has %d or they differ", i, len(subs[i]), len(want))
		}
	}
	if err := d.Insert(c.ins, c.insVals); err != nil {
		return err
	}
	deleted, err := d.Delete(c.ins)
	if err != nil {
		return err
	}
	for i, ok := range deleted {
		t.op()
		if !ok {
			t.fail("Delete did not find key %d that the same cycle inserted", i)
		}
	}
	return nil
}

func sameKVs(a, b []KV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Value != b[i].Value || !bitstr.Equal(a[i].Key, b[i].Key) {
			return false
		}
	}
	return true
}

// buildOracle loads the sequential reference trie.
func buildOracle(keys []Key, vals []uint64) *trie.Trie {
	t := trie.New()
	for i, k := range keys {
		t.Insert(k, vals[i])
	}
	return t
}

const (
	reqGet = iota
	reqInsert
	reqDelete
)

// request is one single-key request from planning to verification.
type request struct {
	kind    int
	pos     int
	seq     uint32
	val     uint64 // insert: the value written; get: the value expected
	present bool   // get: whether the key is expected to be stored
	check   bool   // get: no write overlapped it at submission
	start   time.Time
	wait    waiter
}

// client is the client model of every request phase. Whether a request
// is a get or a put follows a fixed schedule, not a coin: a phase's
// throughput follows its put share, and a drawn share would add a few per
// cent of noise that belongs to no layer. The kind of put is drawn — half
// overwrites of a uniformly drawn preloaded key, a quarter inserts of a
// fresh key, a quarter deletes of the oldest live fresh key, so the stored
// key count is stationary. Every hundredth get re-reads the last
// acknowledged put.
type client struct {
	w   *world
	d   door
	rng *rand.Rand
	// next draws the key of a get. The warm-up and the sync phase draw
	// from one stream and the pipelined phase from a second, so that each
	// starts at the head of a stream however many keys the timed sync
	// phase drew: the hot range of router_strong shifts every 20 000
	// draws, and where those shifts fall in the pipelined phase must not
	// depend on how fast the sync phase happened to run.
	next, pipelineNext func() Key
	getPct             int
	used               int   // fresh keys handed out so far; they are used round-robin
	live               []int // fresh keys inserted and not yet deleted, oldest first
	lastPut            int
	seq                uint32
	gets               int // gets planned so far
	tally              tally
}

func newClient(w *world, d door, def *workloadDef, seed int64) *client {
	c := &client{w: w, d: d, getPct: def.getPct, lastPut: -1,
		rng: rand.New(rand.NewSource(seed*1000 + 1))}
	stored := w.keys[:w.n]
	stream := func(seed int64) func() Key {
		if def.zipf > 0 {
			return workload.NewKeyStream(stored, seed, def.zipf).Next
		}
		return workload.NewHotRangeStream(stored, seed, 0.8, hotRanges, hotPeriod).Next
	}
	c.next, c.pipelineNext = stream(seed*1000+100), stream(seed*1000+101)
	return c
}

// plan chooses the next request and does the bookkeeping of submitting
// it; issue makes the call. Request i is a get exactly when the running
// share of gets would otherwise fall below getPct.
func (c *client) plan() request {
	c.seq++
	w := c.w
	rq := request{seq: c.seq}
	if c.gets*100 < c.getPct*int(c.seq) {
		c.gets++
		rq.kind = reqGet
		if c.lastPut >= 0 && c.gets%100 == 0 {
			rq.pos = c.lastPut
		} else {
			rq.pos = w.pos(c.next())
		}
		if w.pending[rq.pos] == 0 {
			rq.check, rq.val, rq.present = true, w.expect[rq.pos], w.present[rq.pos]
		}
		return rq
	}
	switch r := c.rng.Intn(4); {
	case r < 2:
		rq.kind, rq.pos = reqInsert, c.rng.Intn(w.n)
	case (r == 2 || len(c.live) < minLive) && len(c.live) < freshKeys/2:
		rq.kind, rq.pos = reqInsert, w.n+c.used%freshKeys
		c.used++
		c.live = append(c.live, rq.pos)
	default:
		rq.kind, rq.pos = reqDelete, c.live[0]
		c.live = c.live[1:]
	}
	rq.val = c.rng.Uint64()
	w.pending[rq.pos]++
	w.lastWrite[rq.pos] = rq.seq
	w.dirty[rq.pos] = true
	return rq
}

func (c *client) issue(rq *request) {
	k := c.w.keys[rq.pos]
	rq.start = time.Now()
	switch rq.kind {
	case reqGet:
		rq.wait = c.d.GetAsync(k)
	case reqInsert:
		rq.wait = c.d.InsertAsync(k, rq.val)
	default:
		rq.wait = c.d.DeleteAsync(k)
	}
}

// verify records the answer of a waited request. Requests are verified
// in submission order, so expect and present end at the last write.
func (c *client) verify(rq *request, val uint64, found bool, err error) {
	w := c.w
	c.tally.op()
	if err != nil {
		c.tally.fail("request %d on key %d: %v", rq.seq, rq.pos, err)
	}
	switch rq.kind {
	case reqGet:
		if err == nil && rq.check && w.lastWrite[rq.pos] < rq.seq &&
			(found != rq.present || (found && val != rq.val)) {
			c.tally.fail("get of key %d = (%d, %v), acknowledged writes say (%d, %v)", rq.pos, val, found, rq.val, rq.present)
		}
	case reqInsert:
		w.pending[rq.pos]--
		w.expect[rq.pos], w.present[rq.pos] = rq.val, true
		c.lastPut = rq.pos
	case reqDelete:
		w.pending[rq.pos]--
		if err == nil && !found {
			c.tally.fail("delete of live fresh key %d found nothing", rq.pos)
		}
		w.present[rq.pos] = false
		c.lastPut = rq.pos
	}
}

// syncLatencies are the sync phase's per-request times, call to Wait
// return, and the time spent inside the submitting call alone.
type syncLatencies struct {
	get, put, submit []time.Duration
}

// syncPhase sends requests one at a time for dur.
func syncPhase(c *client, dur time.Duration, tr *tracer) syncLatencies {
	var lat syncLatencies
	for start := time.Now(); time.Since(start) < dur; {
		rq := c.plan()
		tr.begin("request")
		tr.begin("submit")
		c.issue(&rq)
		submitted := time.Since(rq.start)
		tr.end()
		tr.begin("wait")
		val, found, err := rq.wait()
		el := time.Since(rq.start)
		tr.end()
		tr.end()
		c.verify(&rq, val, found, err)
		lat.submit = append(lat.submit, submitted)
		if rq.kind == reqGet {
			lat.get = append(lat.get, el)
		} else {
			lat.put = append(lat.put, el)
		}
	}
	return lat
}

// pipeline keeps window requests in flight, reaping them in submission
// order, until stop says so; it returns the completions counted before
// stop and the time they took. Whatever is still in flight is then waited
// for and verified, uncounted. The caller waits for replies, so this is a
// closed loop of window outstanding requests, never more, sent from one
// goroutine: the requests are the load, not the goroutines that carry
// them.
func (c *client) pipeline(window int, stop func(done int, elapsed time.Duration) bool) (int, time.Duration) {
	ring := make([]request, window)
	head, inflight, done := 0, 0, 0
	reap := func() {
		rq := &ring[head]
		head = (head + 1) % window
		inflight--
		val, found, err := rq.wait()
		c.verify(rq, val, found, err)
	}
	start := time.Now()
	for !stop(done, time.Since(start)) {
		if inflight == window {
			reap()
			done++
		}
		rq := c.plan()
		c.issue(&rq)
		ring[(head+inflight)%window] = rq
		inflight++
	}
	elapsed := time.Since(start)
	for inflight > 0 {
		reap()
	}
	return done, elapsed
}

// readBack reads every key written during the pass through the door and
// compares it with the last acknowledged write.
func readBack(d door, w *world, batch int, t *tally) error {
	var positions []int
	for p, dirty := range w.dirty {
		if dirty {
			positions = append(positions, p)
		}
	}
	keys := make([]Key, 0, batch)
	for lo := 0; lo < len(positions); lo += batch {
		part := positions[lo:min(lo+batch, len(positions))]
		keys = keys[:0]
		for _, p := range part {
			keys = append(keys, w.keys[p])
		}
		vals, found, err := d.Get(keys)
		if err != nil {
			return fmt.Errorf("read-back: %w", err)
		}
		for i, p := range part {
			t.op()
			if found[i] != w.present[p] || (found[i] && vals[i] != w.expect[p]) {
				t.fail("read-back of key %d = (%d, %v), last acknowledged write says (%d, %v)", p, vals[i], found[i], w.expect[p], w.present[p])
			}
		}
	}
	return nil
}

// quantile returns the nearest-rank q-quantile of d, zero for no samples.
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[metrics.NearestRank(len(s), q)]
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// liveHeapMB is the heap still reachable after a collection, the host
// bytes the configuration retains (shadow, Flat, checkpoint images and
// the harness's own key set all count).
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
