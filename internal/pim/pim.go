// Package pim is an instrumented, in-process simulator of the
// Processing-in-Memory Model of Kang et al. (SPAA 2021), the cost model in
// which PIM-trie is designed and analyzed (paper §2).
//
// The model consists of a host CPU and P PIM modules. Each module couples
// a private memory with a weak general-purpose processor; only the host
// can move data between its cache and module memories, and execution
// proceeds in BSP-style rounds: the host writes buffers to modules,
// launches module programs, waits, and reads buffers back.
//
// This simulator substitutes for real PIM hardware (UPMEM-class systems).
// It preserves precisely the quantities the paper's theorems bound:
//
//   - IO rounds     — number of BSP supersteps,
//   - IO time       — Σ over rounds of max words to/from any one module,
//   - IO volume     — total words transferred,
//   - PIM time      — Σ over rounds of max accounted work on any module,
//   - CPU work      — host-side accounted operations,
//   - space         — words of module memory in use.
//
// Module programs run as real Go closures on a persistent pool of
// worker goroutines (one job per busy module per round), so wall-clock
// also benefits from module parallelism, but all reproduction claims
// are made on the model metrics above. Model metrics are deterministic
// for a fixed seed regardless of the parallelism level: module programs
// are data-race-free by contract, and all accounting happens on the
// host after the round barrier.
package pim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"github.com/pimlab/pimtrie/internal/parallel"
)

// Addr names an object living in some module's memory: the (PIM module
// ID, local memory address) pair of §4.
type Addr struct {
	Module int
	ID     uint64
}

// NilAddr is the zero Addr, used as a null pointer.
var NilAddr = Addr{Module: -1}

// IsNil reports whether a is the null address.
func (a Addr) IsNil() bool { return a.Module < 0 }

func (a Addr) String() string { return fmt.Sprintf("pim(%d:%d)", a.Module, a.ID) }

// Sized is implemented by objects that know their PIM-memory footprint in
// machine words; Alloc falls back to one word for other values.
type Sized interface {
	SizeWords() int
}

// Module is one PIM module: local object memory plus a work counter for
// the program currently running on it. Module methods must only be called
// from code executing inside a Round on this module, or from the host
// strictly for accounting-free setup/teardown.
type Module struct {
	id      int
	objects map[uint64]any
	sizes   map[uint64]int
	nextID  uint64
	space   int // words currently allocated

	work int64 // work accounted in the current round
}

// ID returns the module's index in [0, P).
func (m *Module) ID() int { return m.id }

// Alloc stores obj in module memory and returns its address.
func (m *Module) Alloc(obj any) Addr {
	m.nextID++
	id := m.nextID
	m.objects[id] = obj
	sz := sizeOf(obj)
	m.sizes[id] = sz
	m.space += sz
	return Addr{Module: m.id, ID: id}
}

// Get loads the object at id; it panics on a dangling address, which
// always indicates a bug in the index code.
func (m *Module) Get(id uint64) any {
	obj, ok := m.objects[id]
	if !ok {
		panic(&InvariantError{Op: "dangling address", Module: m.id, ID: id})
	}
	return obj
}

// Resize re-accounts the space of the object at id after a mutation.
func (m *Module) Resize(id uint64) {
	obj, ok := m.objects[id]
	if !ok {
		panic(&InvariantError{Op: "resize of dangling address", Module: m.id, ID: id})
	}
	m.space -= m.sizes[id]
	sz := sizeOf(obj)
	m.sizes[id] = sz
	m.space += sz
}

// Free releases the object at id.
func (m *Module) Free(id uint64) {
	if _, ok := m.objects[id]; !ok {
		panic(&InvariantError{Op: "double free", Module: m.id, ID: id})
	}
	m.space -= m.sizes[id]
	delete(m.objects, id)
	delete(m.sizes, id)
}

// Work accounts n instructions of PIM-processor work for the current
// round's program.
func (m *Module) Work(n int) { m.work += int64(n) }

// SpaceWords returns the words of module memory currently allocated.
func (m *Module) SpaceWords() int { return m.space }

// Objects returns the number of live objects (diagnostics only).
func (m *Module) Objects() int { return len(m.objects) }

// Each visits every live object (diagnostics only; never accounted).
func (m *Module) Each(fn func(obj any)) {
	for _, o := range m.objects {
		fn(o)
	}
}

// EachID visits every live object with its local address; for module
// programs that sweep their own memory (e.g. bulk teardown).
func (m *Module) EachID(fn func(id uint64, obj any)) {
	for id, o := range m.objects {
		fn(id, o)
	}
}

func sizeOf(obj any) int {
	if s, ok := obj.(Sized); ok {
		if w := s.SizeWords(); w > 0 {
			return w
		}
		return 1
	}
	return 1
}

// Task is one host→module interaction inside a round: the host ships
// SendWords words of input to module Module, the module runs Run, and the
// host reads back the reply. Several tasks may target the same module in
// one round; they execute sequentially on that module.
type Task struct {
	Module    int
	SendWords int
	Run       func(m *Module) Resp
}

// Resp is a module program's reply: RecvWords words are read back by the
// host; Value carries the decoded payload for the host's continuation.
type Resp struct {
	RecvWords int
	Value     any
}

// Metrics is a snapshot of the model's cumulative cost counters.
type Metrics struct {
	Rounds       int64 // BSP supersteps executed
	IOTime       int64 // Σ_r max_m (words to+from module m in round r)
	IOWords      int64 // total words moved CPU↔PIM
	PIMTime      int64 // Σ_r max_m (work on module m in round r)
	PIMWork      int64 // total accounted PIM work
	CPUWork      int64 // total accounted CPU work
	PerModuleIO  []int64
	PerModuleWrk []int64
}

// Sub returns m - s, the cost incurred between two snapshots. The
// per-module vectors are subtracted index-wise up to the shorter length,
// so snapshots taken from systems with different module counts (or
// zero-value snapshots with no vectors at all) diff without panicking:
// missing entries count as zero.
func (m Metrics) Sub(s Metrics) Metrics {
	d := Metrics{
		Rounds:  m.Rounds - s.Rounds,
		IOTime:  m.IOTime - s.IOTime,
		IOWords: m.IOWords - s.IOWords,
		PIMTime: m.PIMTime - s.PIMTime,
		PIMWork: m.PIMWork - s.PIMWork,
		CPUWork: m.CPUWork - s.CPUWork,
	}
	d.PerModuleIO = make([]int64, len(m.PerModuleIO))
	for i, v := range m.PerModuleIO {
		if i < len(s.PerModuleIO) {
			v -= s.PerModuleIO[i]
		}
		d.PerModuleIO[i] = v
	}
	d.PerModuleWrk = make([]int64, len(m.PerModuleWrk))
	for i, v := range m.PerModuleWrk {
		if i < len(s.PerModuleWrk) {
			v -= s.PerModuleWrk[i]
		}
		d.PerModuleWrk[i] = v
	}
	return d
}

// Add returns m + s; per-module vectors are summed index-wise over the
// longer of the two (the inverse of Sub's guard).
func (m Metrics) Add(s Metrics) Metrics {
	d := Metrics{
		Rounds:  m.Rounds + s.Rounds,
		IOTime:  m.IOTime + s.IOTime,
		IOWords: m.IOWords + s.IOWords,
		PIMTime: m.PIMTime + s.PIMTime,
		PIMWork: m.PIMWork + s.PIMWork,
		CPUWork: m.CPUWork + s.CPUWork,
	}
	n := len(m.PerModuleIO)
	if len(s.PerModuleIO) > n {
		n = len(s.PerModuleIO)
	}
	d.PerModuleIO = make([]int64, n)
	for i := range d.PerModuleIO {
		if i < len(m.PerModuleIO) {
			d.PerModuleIO[i] += m.PerModuleIO[i]
		}
		if i < len(s.PerModuleIO) {
			d.PerModuleIO[i] += s.PerModuleIO[i]
		}
	}
	n = len(m.PerModuleWrk)
	if len(s.PerModuleWrk) > n {
		n = len(s.PerModuleWrk)
	}
	d.PerModuleWrk = make([]int64, n)
	for i := range d.PerModuleWrk {
		if i < len(m.PerModuleWrk) {
			d.PerModuleWrk[i] += m.PerModuleWrk[i]
		}
		if i < len(s.PerModuleWrk) {
			d.PerModuleWrk[i] += s.PerModuleWrk[i]
		}
	}
	return d
}

// IOBalance returns P·max_m(io_m)/Σ_m(io_m), the load-imbalance factor of
// the communication: 1.0 is perfect balance, P is total serialization.
// It returns 1 when no IO occurred.
func (m Metrics) IOBalance() float64 {
	var max, sum int64
	for _, v := range m.PerModuleIO {
		if v > max {
			max = v
		}
		sum += v
	}
	if sum == 0 {
		return 1
	}
	return float64(max) * float64(len(m.PerModuleIO)) / float64(sum)
}

// WorkBalance is IOBalance for PIM work.
func (m Metrics) WorkBalance() float64 {
	var max, sum int64
	for _, v := range m.PerModuleWrk {
		if v > max {
			max = v
		}
		sum += v
	}
	if sum == 0 {
		return 1
	}
	return float64(max) * float64(len(m.PerModuleWrk)) / float64(sum)
}

// RoundTrace describes one executed BSP round for diagnostics.
type RoundTrace struct {
	Tasks     int
	Modules   int   // distinct modules addressed
	SendWords int64 // total words shipped to modules
	RecvWords int64 // total words read back
	MaxIO     int64 // busiest module's words (to+from)
	MaxWork   int64 // busiest module's accounted work
	Work      int64 // total accounted module work this round

	// Sparse per-module breakdown: ModID lists the modules addressed this
	// round; ModIO[j] and ModWork[j] are module ModID[j]'s words (to+from)
	// and accounted work. Populated only while a Recorder is attached.
	// These slices alias pooled scratch the System reuses for the next
	// round — they are valid only until RecordRound returns; retainers
	// must copy (Clone).
	ModID   []int
	ModIO   []int64
	ModWork []int64
}

// Clone returns a RoundTrace whose per-module vectors are owned by the
// caller — the copy a Recorder must take if it keeps the trace past the
// RecordRound call.
func (tr RoundTrace) Clone() RoundTrace {
	tr.ModID = append([]int(nil), tr.ModID...)
	tr.ModIO = append([]int64(nil), tr.ModIO...)
	tr.ModWork = append([]int64(nil), tr.ModWork...)
	return tr
}

// Recorder observes a System's execution: phase open/close markers,
// every executed round (with its per-module breakdown), and host-side
// work accounting. It is the hook by which external attribution layers
// (internal/obs) attach without this package importing them. All methods
// are invoked synchronously from the host goroutine driving the system:
// a Recorder needs no locking against the system itself, only against
// its own concurrent readers.
type Recorder interface {
	// BeginPhase opens a named phase; phases nest (LIFO).
	BeginPhase(name string)
	// EndPhase closes the innermost open phase.
	EndPhase()
	// RecordRound is called after each executed round's accounting. The
	// trace's per-module slices are on loan from the system's pooled
	// scratch: read them during the call, Clone() to retain them.
	RecordRound(tr RoundTrace)
	// RecordCPUWork is called for each CPUWork accounting event.
	RecordCPUWork(n int)
}

// System is a host CPU plus P PIM modules.
type System struct {
	p       int
	modules []*Module
	rng     *rand.Rand
	rngMu   sync.Mutex
	seed    int64
	metrics Metrics
	maxPar  int // cap on concurrently executing module programs

	faults     *faultState // nil on a fault-free system
	phaseDepth int         // open phases, for post-panic unwinding

	// Persistent round executor (started lazily by Round) and pooled
	// per-round scratch. perModule buckets task indices by module and is
	// cleared — not reallocated — between rounds; touched lists the
	// modules bucketed this round so clearing is O(busy), never O(P).
	exec      *executor
	closeOnce sync.Once
	wg        sync.WaitGroup
	perModule [][]int
	touched   []int
	sendBy    []int64 // per-busy-module send words, accounting scratch
	recvBy    []int64 // per-busy-module recv words
	wrkBy     []int64 // per-busy-module accounted work

	// Pooled RoundTrace vectors, reused across rounds so an attached
	// always-on Recorder (obs.Monitor) costs zero allocations per round.
	// Consumers that retain a RoundTrace past the RecordRound call must
	// copy these (see Recorder).
	modIDBuf   []int
	modIOBuf   []int64
	modWorkBuf []int64

	recorder Recorder
}

// roundJob is one module's share of a round: the executor runs the
// module's tasks sequentially (tasks on one module never run
// concurrently) and signals the round barrier.
type roundJob struct {
	mod   *Module
	idxs  []int
	tasks []Task
	resps []Resp
	wg    *sync.WaitGroup
}

// executor is a pool of persistent worker goroutines fed one roundJob
// per busy module per round. It replaces the per-round goroutine
// spawning (and the per-round semaphore channel) the simulator used to
// pay on every BSP superstep: workers are started once per System and
// reused for every subsequent round.
type executor struct {
	jobs chan roundJob
}

func newExecutor(workers int) *executor {
	e := &executor{jobs: make(chan roundJob, 4*workers)}
	for i := 0; i < workers; i++ {
		go e.run()
	}
	return e
}

func (e *executor) run() {
	for j := range e.jobs {
		runModuleTasks(j.mod, j.idxs, j.tasks, j.resps)
		j.wg.Done()
	}
}

func runModuleTasks(mod *Module, idxs []int, tasks []Task, resps []Resp) {
	for _, ti := range idxs {
		if tasks[ti].Run != nil {
			resps[ti] = tasks[ti].Run(mod)
		}
	}
}

// workerCount is the effective module-program parallelism: never more
// workers than modules, never more than the maxPar cap.
func (s *System) workerCount() int {
	w := s.maxPar
	if w > s.p {
		w = s.p
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ensureExec starts the persistent worker pool on first use. A
// finalizer backstops Close so systems that are simply dropped (the
// common pattern in tests and experiment sweeps) do not leak workers.
func (s *System) ensureExec() *executor {
	if s.exec == nil {
		s.exec = newExecutor(s.workerCount())
		runtime.SetFinalizer(s, (*System).Close)
	}
	return s.exec
}

// Close stops the persistent worker goroutines, if any were started.
// Calling Close is optional — a finalizer performs the same shutdown
// when the System is garbage collected — and idempotent. The System
// must not be executing a Round when Close is called.
func (s *System) Close() {
	s.closeOnce.Do(func() {
		if s.exec != nil {
			close(s.exec.jobs)
		}
		runtime.SetFinalizer(s, nil)
	})
}

// systemHook, set via SetSystemHook, is invoked synchronously at the end
// of every NewSystem call. Observability tooling (cmd/pimbench -trace)
// uses it to attach a Recorder to each system an experiment creates
// internally, without threading a handle through every constructor.
var (
	systemHookMu sync.Mutex
	systemHook   func(*System)
)

// SetSystemHook installs (or, with nil, removes) the global new-system
// hook. The hook runs synchronously inside NewSystem.
func SetSystemHook(h func(*System)) {
	systemHookMu.Lock()
	systemHook = h
	systemHookMu.Unlock()
}

// Option configures a System.
type Option func(*System)

// WithSeed fixes the seed of the host's placement RNG (RandModule).
func WithSeed(seed int64) Option {
	return func(s *System) {
		s.seed = seed
		s.rng = rand.New(rand.NewSource(seed))
	}
}

// WithMaxParallelism caps how many module programs run concurrently;
// useful to keep tests deterministic in scheduling-sensitive scenarios.
// With n == 1 the executor runs every module program inline on the host
// goroutine in dispatch order; model metrics are identical either way
// (module programs are data-race-free by the Round contract, so every
// schedule observes the same state).
func WithMaxParallelism(n int) Option {
	return func(s *System) {
		if n > 0 {
			s.maxPar = n
		}
	}
}

// NewSystem creates a system with p PIM modules. Module-program
// parallelism defaults to the machine's CPU count: simulated module
// programs are pure compute, so workers beyond GOMAXPROCS only add
// scheduling overhead (override with WithMaxParallelism).
func NewSystem(p int, opts ...Option) *System {
	if p <= 0 {
		panic("pim: need at least one module")
	}
	s := &System{
		p:      p,
		rng:    rand.New(rand.NewSource(1)),
		seed:   1,
		maxPar: runtime.GOMAXPROCS(0),
	}
	s.modules = make([]*Module, p)
	for i := range s.modules {
		s.modules[i] = &Module{id: i, objects: map[uint64]any{}, sizes: map[uint64]int{}}
	}
	s.metrics.PerModuleIO = make([]int64, p)
	s.metrics.PerModuleWrk = make([]int64, p)
	for _, o := range opts {
		o(s)
	}
	if s.faults != nil {
		// Seed the fault RNG here, after all options, so a zero plan seed
		// derives from the system seed regardless of option order.
		s.faults.dead = make([]bool, p)
		fseed := s.faults.plan.Seed
		if fseed == 0 {
			fseed = s.seed ^ 0x7fb5d329728ea185
		}
		s.faults.rng = rand.New(rand.NewSource(fseed))
	}
	systemHookMu.Lock()
	hook := systemHook
	systemHookMu.Unlock()
	if hook != nil {
		hook(s)
	}
	return s
}

// SetRecorder attaches (or, with nil, detaches) a Recorder. Only one
// recorder is active at a time; attaching replaces the previous one.
func (s *System) SetRecorder(r Recorder) { s.recorder = r }

// Phase opens a named phase on the attached recorder and returns the
// closure that ends it, for use as `defer sys.Phase("lcp")()`. Without a
// recorder it is a near-free no-op, so algorithm code can annotate
// unconditionally.
func (s *System) Phase(name string) func() {
	r := s.recorder
	if r == nil {
		return noopPhaseEnd
	}
	r.BeginPhase(name)
	s.phaseDepth++
	return func() {
		r.EndPhase()
		s.phaseDepth--
	}
}

var noopPhaseEnd = func() {}

// PhaseDepth returns the number of currently open phases. Recovery code
// snapshots it before an operation so UnwindPhases can restore balance
// after a panic skipped non-deferred phase ends.
func (s *System) PhaseDepth() int { return s.phaseDepth }

// UnwindPhases closes open phases until the depth drops back to depth.
// A ModuleLostError panic can unwind past phase ends that are not
// deferred; without rebalancing, the recorder's Begin/End pairing — and
// with it the obs conservation check — would break.
func (s *System) UnwindPhases(depth int) {
	for s.phaseDepth > depth && s.recorder != nil {
		s.recorder.EndPhase()
		s.phaseDepth--
	}
}

// P returns the number of PIM modules.
func (s *System) P() int { return s.p }

// RandModule draws a uniformly random module index from the host's
// placement RNG; all "distribute uniformly randomly" steps use it.
func (s *System) RandModule() int {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.Intn(s.p)
}

// CPUWork accounts n host-side operations.
func (s *System) CPUWork(n int) {
	s.metrics.CPUWork += int64(n)
	if s.recorder != nil {
		s.recorder.RecordCPUWork(n)
	}
}

// Metrics returns a snapshot of the cumulative counters.
func (s *System) Metrics() Metrics {
	m := s.metrics
	m.PerModuleIO = append([]int64(nil), s.metrics.PerModuleIO...)
	m.PerModuleWrk = append([]int64(nil), s.metrics.PerModuleWrk...)
	return m
}

// SpaceWords returns total and per-module words of PIM memory in use.
func (s *System) SpaceWords() (total int, per []int) {
	per = make([]int, s.p)
	for i, m := range s.modules {
		per[i] = m.space
		total += m.space
	}
	return total, per
}

// Module returns module i for host-side setup that is deliberately not
// accounted (e.g., constructing initial state in tests). Algorithm code
// must access modules only through Round.
func (s *System) Module(i int) *Module { return s.modules[i] }

// Round executes one BSP superstep: all tasks' inputs are shipped, module
// programs run (in parallel across modules, sequentially within one
// module), and replies are read back. It returns the replies in task
// order and updates every cost counter.
//
// Every round, faulted or not, is executed and charged by runRound;
// under an active fault plan roundFaulted only decides which tasks run
// and which module straggles. A round may then lose a module; Round
// reports that by panicking with the *ModuleLostError (algorithm code
// deep in a batch has no useful local reaction — the recovery layer
// catches it). Callers that prefer an error use TryRound.
func (s *System) Round(tasks []Task) []Resp {
	resps, err := s.TryRound(tasks)
	if err != nil {
		panic(err)
	}
	return resps
}

// TryRound is Round with fault reporting: when an injected crash fires
// during the round, or tasks target an already-dead module, it returns
// the (partial) replies plus a *ModuleLostError instead of panicking.
// On a fault-free system it never returns an error.
func (s *System) TryRound(tasks []Task) ([]Resp, error) {
	if f := s.faults; f != nil && f.suspended == 0 {
		// Even empty rounds go through the fault path: every round
		// boundary must consume the same RNG draws to stay replayable.
		return s.roundFaulted(tasks)
	}
	return s.runRound(tasks, -1), nil
}

// checkTarget panics with an InvariantError when task i addresses a
// module outside [0, P).
func (s *System) checkTarget(tasks []Task, i int) {
	if mi := tasks[i].Module; mi < 0 || mi >= s.p {
		panic(&InvariantError{
			Op: "invalid task target", Module: mi, ID: uint64(i),
			Detail: fmt.Sprintf("task %d of %d", i, len(tasks)),
		})
	}
}

// runRound is the round engine: it executes one superstep of tasks and
// charges it. Tasks with a nil Run are shipped and charged but run
// nothing. The straggler's accounted work (-1: none) is multiplied by
// the fault plan's StraggleFactor.
//
// Execution goes through the System's persistent worker pool — one
// roundJob per busy module — except when the effective parallelism is 1
// or only one module is busy, in which case the programs run inline on
// the host goroutine (same observable behavior, no scheduling cost).
func (s *System) runRound(tasks []Task, straggler int) []Resp {
	if len(tasks) == 0 {
		// An empty round still synchronizes; count it to keep algorithms
		// honest about their round structure. It touches no scratch.
		s.metrics.Rounds++
		if s.recorder != nil {
			s.recorder.RecordRound(RoundTrace{})
		}
		return nil
	}
	resps := make([]Resp, len(tasks))

	// Bucket task indices by module into the pooled scratch.
	if s.perModule == nil {
		s.perModule = make([][]int, s.p)
	}
	touched := s.touched[:0]
	for i, t := range tasks {
		s.checkTarget(tasks, i)
		if len(s.perModule[t.Module]) == 0 {
			touched = append(touched, t.Module)
		}
		s.perModule[t.Module] = append(s.perModule[t.Module], i)
	}
	s.touched = touched

	// Execute: inline when nothing can run concurrently, else dispatch
	// one job per busy module to the persistent pool.
	if len(touched) == 1 || s.workerCount() == 1 {
		for _, mi := range touched {
			runModuleTasks(s.modules[mi], s.perModule[mi], tasks, resps)
		}
	} else {
		e := s.ensureExec()
		s.wg.Add(len(touched))
		for _, mi := range touched {
			e.jobs <- roundJob{mod: s.modules[mi], idxs: s.perModule[mi], tasks: tasks, resps: resps, wg: &s.wg}
		}
		s.wg.Wait()
	}

	// Accounting (host side, after the barrier). Per-busy-module sums
	// run as a chunked parallel reduction — disjoint writes into pooled
	// scratch indexed by busy-module rank — followed by a serial O(busy)
	// fold; for small rounds parallel.ForChunked degrades to the plain
	// loop. touched is sorted so per-module trace vectors keep their
	// module-order layout.
	sort.Ints(s.touched)
	touched = s.touched
	nb := len(touched)
	if cap(s.sendBy) < nb {
		s.sendBy = make([]int64, nb)
		s.recvBy = make([]int64, nb)
		s.wrkBy = make([]int64, nb)
	}
	sendBy, recvBy, wrkBy := s.sendBy[:nb], s.recvBy[:nb], s.wrkBy[:nb]
	observing := s.recorder != nil
	var modID []int
	var modIO, modWork []int64
	if observing {
		if cap(s.modIDBuf) < nb {
			s.modIDBuf = make([]int, nb)
			s.modIOBuf = make([]int64, nb)
			s.modWorkBuf = make([]int64, nb)
		}
		modID = s.modIDBuf[:nb]
		modIO = s.modIOBuf[:nb]
		modWork = s.modWorkBuf[:nb]
	}
	parallel.ForChunked(nb, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			mi := touched[k]
			var sw, rw int64
			for _, ti := range s.perModule[mi] {
				sw += int64(tasks[ti].SendWords)
				rw += int64(resps[ti].RecvWords)
			}
			m := s.modules[mi]
			w := m.work
			m.work = 0
			if mi == straggler {
				w *= s.faults.plan.StraggleFactor
			}
			sendBy[k], recvBy[k], wrkBy[k] = sw, rw, w
			s.metrics.PerModuleIO[mi] += sw + rw
			s.metrics.PerModuleWrk[mi] += w
			if observing {
				modID[k], modIO[k], modWork[k] = mi, sw+rw, w
			}
		}
	})
	s.metrics.Rounds++
	var roundMaxIO, roundMaxWork, sendW, recvW, workW int64
	for k := 0; k < nb; k++ {
		io, w := sendBy[k]+recvBy[k], wrkBy[k]
		sendW += sendBy[k]
		recvW += recvBy[k]
		workW += w
		s.metrics.IOWords += io
		s.metrics.PIMWork += w
		if io > roundMaxIO {
			roundMaxIO = io
		}
		if w > roundMaxWork {
			roundMaxWork = w
		}
	}
	s.metrics.IOTime += roundMaxIO
	s.metrics.PIMTime += roundMaxWork
	if observing {
		s.recorder.RecordRound(RoundTrace{
			Tasks: len(tasks), Modules: nb,
			SendWords: sendW, RecvWords: recvW,
			MaxIO: roundMaxIO, MaxWork: roundMaxWork, Work: workW,
			ModID: modID, ModIO: modIO, ModWork: modWork,
		})
	}
	// Reset the bucketing scratch for the next round (O(busy)).
	for _, mi := range touched {
		s.perModule[mi] = s.perModule[mi][:0]
	}
	return resps
}

// Broadcast runs one round with the same program on every module, shipping
// sendWords words to each (e.g., replicating the master-tree, §4.4).
func (s *System) Broadcast(sendWords int, run func(m *Module) Resp) []Resp {
	tasks := make([]Task, s.p)
	for i := range tasks {
		tasks[i] = Task{Module: i, SendWords: sendWords, Run: run}
	}
	return s.Round(tasks)
}
