package serve

// The durability layer. With Options.Durable set, every committed
// write epoch is appended to a write-ahead log *before* its futures
// resolve — acknowledged means durable — and a background checkpointer
// periodically freezes the index (Index.Snapshot, a COW view at the
// epoch boundary), serializes it, and prunes the log segments the
// checkpoint covers. Restart-time recovery (wal.Recover + Restore)
// loads the newest checkpoint, replays the log tail through the
// index's ordinary batch paths, and resumes logging where the old
// process stopped.
//
// Ordering contract. The executor applies an epoch to the index, then
// appends it to the WAL (fsync per Options on the log), then publishes
// it to snapshot readers and resolves its write futures. A crash
// between apply and append loses only epochs no client ever saw
// acknowledged; a crash after append may recover an epoch whose acks
// never went out — both are within the serial-order contract (recovered
// state is always a prefix of the committed epoch order that contains
// every acknowledged epoch). A failed append or fsync, or a failed
// Apply of a write epoch, stops the server (fail stop): the write is
// never acknowledged nor read, every later call fails with the sticky
// error, and OpenDurable recovers exactly the acknowledged state. An
// fsync is never retried: the kernel may have dropped the dirty pages.
// Checkpoint errors do not stop it. Checkpoints are captured on the
// executor thread between epochs, so a checkpoint at sequence S holds
// exactly the state after epoch S.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/wal"
)

// Durable configures the durability layer (Options.Durable).
type Durable struct {
	// Log is the open write-ahead log; required. Its sync policy
	// decides when acknowledged epochs reach stable storage (see
	// wal.SyncPolicy; every policy survives process death, the
	// policies differ on machine crashes).
	Log *wal.Log
	// CheckpointEvery is the number of committed write epochs between
	// checkpoints (default 256; negative disables checkpointing, the
	// log then grows without bound).
	CheckpointEvery int
	// PendingEpochs seeds the epochs-since-checkpoint counter —
	// OpenDurable sets it to the recovered replay-tail length so a
	// restarted server re-checkpoints on the original schedule rather
	// than replaying an ever-growing tail across repeated crashes.
	PendingEpochs int
	// OwnLog transfers Log ownership to the server: Close closes it.
	OwnLog bool
	// Recovery, when set (OpenDurable does), publishes the recovery
	// gauges on the metrics registry. The server reads its counts at
	// construction and keeps no reference: the image holds the whole
	// checkpoint and replay tail.
	Recovery *wal.RecoveryInfo
}

func (d Durable) withDefaults() Durable {
	if d.CheckpointEvery == 0 {
		d.CheckpointEvery = 256
	}
	return d
}

// ckptJob hands a frozen snapshot to the background checkpointer.
type ckptJob struct {
	snap *pimtrie.Snapshot
	seq  uint64
}

// durableState is the server's durability runtime.
type durableState struct {
	cfg Durable
	met *durMetrics

	sinceCkpt int // write epochs since the last checkpoint trigger; executor-only

	jobs     chan ckptJob
	wg       sync.WaitGroup
	inFlight atomic.Bool // a checkpoint job is queued or running
	closed   sync.Once

	errMu sync.Mutex
	err   error // first durability error, sticky
}

func newDurableState(ix *pimtrie.Index, cfg Durable, reg *metrics.Registry, labels []metrics.Label) *durableState {
	if cfg.Log == nil {
		panic("serve: Options.Durable requires an open wal.Log")
	}
	if !ix.Health().Recoverable {
		panic("serve: Options.Durable requires a recoverable index " +
			"(set pimtrie.Options.Recoverable: checkpoints freeze the host shadow)")
	}
	info := cfg.Recovery
	cfg.Recovery = nil
	d := &durableState{
		cfg:       cfg.withDefaults(),
		sinceCkpt: cfg.PendingEpochs,
		jobs:      make(chan ckptJob, 1),
	}
	if reg != nil {
		d.met = newDurMetrics(reg, labels)
		if info != nil {
			d.met.recoveredEpochs.Set(float64(len(info.Epochs)))
			d.met.recoveredKeys.Set(float64(len(info.Keys)))
			if info.TornTail {
				d.met.tornTail.Set(1)
			}
			d.met.ckptLastSeq.Set(float64(info.CheckpointSeq))
		}
	}
	d.wg.Add(1)
	go d.checkpointer()
	return d
}

// commitEpoch logs one applied epoch's write sections as one record
// (log-before-ack) and triggers a checkpoint when due. Runs on the
// executor goroutine, between the index apply and the resolution of the
// write futures.
func (d *durableState) commitEpoch(ix *pimtrie.Index, plan *epochPlan) error {
	b := &plan.batch
	seq, err := d.cfg.Log.AppendEpoch(b.Inserts, b.Values, b.Deletes)
	if err != nil {
		return err // the caller fails stop on it
	}
	d.sinceCkpt++
	if d.cfg.CheckpointEvery > 0 && d.sinceCkpt >= d.cfg.CheckpointEvery && !d.inFlight.Load() {
		// Rotate first so the outgoing segment ends exactly at seq;
		// once the checkpoint lands, everything up to seq is prunable.
		if rerr := d.cfg.Log.Rotate(); rerr != nil {
			d.noteErr(rerr)
		} else {
			// Freeze on the executor thread: between epochs the shadow
			// is quiescent, so the snapshot is exactly state-after-seq.
			d.inFlight.Store(true)
			d.jobs <- ckptJob{snap: ix.Snapshot(), seq: seq} // cap 1, gated by inFlight: never blocks
			d.sinceCkpt = 0
		}
	}
	return nil
}

// checkpointer serializes snapshots off the epoch path and prunes
// covered log state. One job at a time; commitEpoch skips a trigger
// while a job is in flight (the next epoch re-triggers).
func (d *durableState) checkpointer() {
	defer d.wg.Done()
	for job := range d.jobs {
		start := time.Now()
		bytes, err := wal.WriteCheckpoint(d.cfg.Log.Dir(), job.seq, job.snap.KeyCount(), job.snap.WalkKeys)
		if err == nil {
			err = wal.PruneCheckpoints(d.cfg.Log.Dir(), 2)
		}
		if err == nil {
			err = d.cfg.Log.PruneThrough(job.seq)
		}
		if err != nil {
			d.noteErr(err)
			if d.met != nil {
				d.met.ckptErrors.Inc()
			}
		} else if d.met != nil {
			d.met.ckptWrites.Inc()
			d.met.ckptKeys.Observe(float64(job.snap.KeyCount()))
			d.met.ckptBytes.Observe(float64(bytes))
			d.met.ckptSeconds.Observe(time.Since(start).Seconds())
			d.met.ckptLastSeq.Set(float64(job.seq))
		}
		d.inFlight.Store(false)
	}
}

// shutdown drains the checkpointer and flushes the log; called by
// Server.Close after the scheduler goroutines have drained.
func (d *durableState) shutdown() {
	d.closed.Do(func() {
		close(d.jobs)
		d.wg.Wait()
		if err := d.cfg.Log.Sync(); err != nil {
			d.noteErr(err)
		}
		if d.cfg.OwnLog {
			if err := d.cfg.Log.Close(); err != nil {
				d.noteErr(err)
			}
		}
	})
}

func (d *durableState) noteErr(err error) {
	d.errMu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.errMu.Unlock()
}

// Snapshot freezes the index's current contents at a write-epoch
// boundary and returns the immutable view: Subtree exports, backups
// and analytic scans read it while write epochs keep committing. Safe
// from any goroutine while the server runs; the index must be
// recoverable (it panics otherwise, like Index.Snapshot). It returns nil
// once a failed durable write stopped the server: the index still holds
// that write until OpenDurable replays the log.
func (s *Server) Snapshot() *pimtrie.Snapshot {
	if s.stopErr() != nil {
		return nil
	}
	return s.ix.Snapshot()
}

// WAL returns the server's write-ahead log for stats inspection, or
// nil when the server is not durable.
func (s *Server) WAL() *wal.Log {
	if s.dur == nil {
		return nil
	}
	return s.dur.cfg.Log
}

// DurabilityErr returns the first write-ahead-log or checkpoint error
// the durability layer has hit, or nil. A failed append or a failed
// Apply of a write epoch also stops the server: every call pending or
// submitted after it fails with it.
// Checkpoint errors only surface here (the log keeps the state
// recoverable, just with a longer replay tail).
func (s *Server) DurabilityErr() error {
	if s.dur == nil {
		return nil
	}
	s.dur.errMu.Lock()
	defer s.dur.errMu.Unlock()
	return s.dur.err
}

// Restore replays recovered durable state into an index: the
// checkpoint contents through the bulk-load path, then the WAL tail
// epoch by epoch, each record's two sections as one Index.Apply — the
// batch the executor applied, inserts then deletes — so the rebuilt
// PIM state is exactly what the shadow dictates.
func Restore(ix *pimtrie.Index, info *wal.RecoveryInfo) error {
	if len(info.Keys) > 0 {
		if err := ix.TryLoad(info.Keys, info.Values); err != nil {
			return fmt.Errorf("serve: restore checkpoint: %w", err)
		}
	}
	for _, e := range info.Epochs {
		if _, err := ix.Apply(pimtrie.Batch{Inserts: e.Inserts, Values: e.Values, Deletes: e.Deletes}); err != nil {
			return fmt.Errorf("serve: replay epoch %d: %w", e.Seq, err)
		}
	}
	return nil
}

// OpenDurable is the restart-time entry point: recover dir, rebuild
// an index from the newest checkpoint plus the WAL tail, reopen the
// log where the previous process stopped, and start a durable server
// over it. newIndex must return a fresh, empty, recoverable index
// (its configuration — P, seed, block sizes — is the caller's
// contract across restarts). wopts.Dir and wopts.NextSeq are set by
// OpenDurable; sopts.Durable may preset CheckpointEvery and is
// otherwise filled in.
func OpenDurable(dir string, wopts wal.Options, sopts Options, newIndex func() *pimtrie.Index) (*Server, *wal.RecoveryInfo, error) {
	info, err := wal.Recover(dir)
	if err != nil {
		return nil, nil, err
	}
	ix := newIndex()
	if !ix.Health().Recoverable {
		return nil, nil, fmt.Errorf("serve: OpenDurable requires a recoverable index (set pimtrie.Options.Recoverable)")
	}
	if err := Restore(ix, info); err != nil {
		return nil, nil, err
	}
	wopts.Dir = dir
	wopts.NextSeq = info.LastSeq + 1
	if wopts.Metrics == nil {
		wopts.Metrics = sopts.Metrics
		wopts.MetricLabels = sopts.MetricLabels
	}
	log, err := wal.Open(wopts)
	if err != nil {
		return nil, nil, err
	}
	var d Durable // a copy: the caller's struct must not end up holding the recovery image
	if sopts.Durable != nil {
		d = *sopts.Durable
	}
	d.Log = log
	d.OwnLog = true
	d.PendingEpochs = len(info.Epochs)
	d.Recovery = info
	sopts.Durable = &d
	return NewServer(ix, sopts), info, nil
}

// durMetrics is the checkpoint/recovery instrument set
// (pimtrie_checkpoint_* plus the recovery gauges; the per-append WAL
// instruments live on the wal.Log itself).
type durMetrics struct {
	ckptWrites  *metrics.Counter
	ckptErrors  *metrics.Counter
	ckptKeys    *metrics.Histogram
	ckptBytes   *metrics.Histogram
	ckptSeconds *metrics.Histogram
	ckptLastSeq *metrics.Gauge

	recoveredEpochs *metrics.Gauge
	recoveredKeys   *metrics.Gauge
	tornTail        *metrics.Gauge
}

func newDurMetrics(reg *metrics.Registry, base []metrics.Label) *durMetrics {
	lbl := func() []metrics.Label { return append([]metrics.Label(nil), base...) }
	return &durMetrics{
		ckptWrites:  reg.Counter("pimtrie_checkpoint_writes_total", "checkpoints written", lbl()...),
		ckptErrors:  reg.Counter("pimtrie_checkpoint_errors_total", "checkpoint or prune failures", lbl()...),
		ckptKeys:    reg.Histogram("pimtrie_checkpoint_keys", "keys serialized per checkpoint", lbl()...),
		ckptBytes:   reg.Histogram("pimtrie_checkpoint_bytes", "checkpoint file size", lbl()...),
		ckptSeconds: reg.Histogram("pimtrie_checkpoint_seconds", "wall-clock time to serialize a checkpoint", lbl()...),
		ckptLastSeq: reg.Gauge("pimtrie_checkpoint_last_seq", "WAL sequence covered by the newest checkpoint", lbl()...),
		recoveredEpochs: reg.Gauge("pimtrie_wal_recovered_epochs",
			"replay-tail epochs recovered at the last restart", lbl()...),
		recoveredKeys: reg.Gauge("pimtrie_wal_recovered_keys",
			"checkpoint keys recovered at the last restart", lbl()...),
		tornTail: reg.Gauge("pimtrie_wal_recovery_torn_tail",
			"1 if the last recovery dropped a torn final record", lbl()...),
	}
}
