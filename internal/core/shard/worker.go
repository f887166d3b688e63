// Shard workers: each one is a miniature monitor — its own pipeline
// core (resilient collector, delta logger, processor and cycle engine,
// the same engine.Core the Monitor runs), plus an optional per-shard WAL
// store — driven over a request/response channel pair by the
// supervisor. The worker goroutine owns its core exclusively while
// a cycle is in flight; between cycles the supervisor may reach into an
// idle core directly (handoff imports, exports), with the next
// request/response pair providing the happens-before edge.
//
// WAL writes are group-committed by the core: the in-memory logger is
// updated stage-by-stage during the cycle, but store frames are queued
// and persisted only after the cycle completes and the worker passes
// its kill check. A worker killed mid-cycle therefore persists nothing
// for that cycle — the frame sequence on disk never contains a cycle the
// supervisor saw fail, which is what keeps cross-shard replay free of
// duplicate and out-of-order frames after a handoff. The same queued
// entries are then committed to each target's in-memory handoff tail,
// so a handoff replays exactly the cycles the WAL holds, data dir or
// not.
package shard

import (
	"sync"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/engine"
	"repro/internal/core/logger"
	"repro/internal/core/process"
	"repro/internal/core/tables"
)

// KillMode is a scripted worker fault, set by the chaos suite between
// cycles and consumed at the worker's next request.
type KillMode int

const (
	killNone KillMode = iota
	// KillBeforeCycle crashes the worker as it picks up the request,
	// before any collection runs.
	KillBeforeCycle
	// KillMidCycle crashes the worker after the engine cycle ran but
	// before anything is persisted, checkpointed or acknowledged — the
	// torn-handoff case the WAL group-commit fencing exists for.
	KillMidCycle
	// Wedge leaves the goroutine alive but useless: it acknowledges
	// requests without collecting and never heartbeats, so only the
	// heartbeat staleness check can catch it.
	Wedge
)

type cycleReq struct {
	now time.Time
	// cycle is the supervisor's cycle number; with each target's name it
	// decides the target's checkpoint turn.
	cycle   int
	targets []collect.Target
}

type cycleResp struct {
	items  []*engine.Item
	wedged bool
	err    error
}

// ckptPeriod is the staggered checkpoint period, in supervisor cycles:
// the durable archive's default CheckpointEvery. Each target is exported
// on its own turn, so no cycle carries the whole fleet's export.
const ckptPeriod = 12

// ckptPhase is the cycle residue, modulo ckptPeriod, on which a target
// takes its checkpoint turn: a hash of its name.
func ckptPhase(name string) int {
	return int(fnv1a(name) % ckptPeriod)
}

// targetCkpt is one target's handoff record on its worker: the state
// exported at the target's last checkpoint turn (or at its last import),
// the cycles committed since, and the health ledger and latest snapshot
// as of the last committed cycle. Handoff resumes the target from here
// exactly as archive recovery resumes a monitor: import the checkpoint,
// replay the tail. Anything the dead worker did after its last commit
// was never persisted, so checkpoint plus tail plus gap markers for the
// blind cycles is exactly the durable truth. asOf is the last cycle
// stamp the record accounts for — later recorded cycles are the
// target's blind window. Before a target's first turn the checkpoint
// is empty and the tail starts at the target's first cycle, so replay
// from empty state is exact.
//
// Health and latest are stored, not replayed: re-deriving health from
// the tail's outcomes would lose StatusRetried and breaker timing, and
// the materialized tables a delta replays to lack the MSDP/MBGP rows
// the live latest snapshot carries.
type targetCkpt struct {
	asOf time.Time
	// The checkpoint: nil/zero until the first turn.
	proc *process.TargetState
	log  logger.TargetState
	stab *process.StabilityState
	// The committed tail past the checkpoint, in cycle order.
	tail []engine.CycleEntry
	// Health and latest snapshot after the last committed cycle.
	health    collect.TargetHealth
	hasHealth bool
	latest    *tables.Snapshot
}

// shardCore is one worker's processing stack: the shared pipeline core
// and the worker pool bound its cycles run with.
type shardCore struct {
	*engine.Core
	conc int
}

func newCore(cfg Config, dir string) (*shardCore, error) {
	c := &shardCore{
		Core: engine.NewCore(collect.NewCollector(cfg.Policy), cfg.Commands, cfg.Clock),
		conc: cfg.Concurrency,
	}
	if cfg.MaxAnomalies > 0 {
		c.Proc.MaxAnomalies = cfg.MaxAnomalies
	}
	if cfg.SeriesRetain > 0 {
		c.Proc.SetSeriesRetain(cfg.SeriesRetain)
	}
	if dir != "" {
		st, err := logger.OpenStore(dir, logger.StoreOptions{SyncEveryAppend: cfg.SyncEveryAppend})
		if err != nil {
			return nil, err
		}
		c.Store = st
	}
	return c, nil
}

// runCycle executes one engine cycle over the worker's assigned
// targets, in-memory only; the WAL frames wait in the core's queue.
func (c *shardCore) runCycle(now time.Time, targets []collect.Target) []*engine.Item {
	items, _, _ := c.Run(now, targets, engine.Options{Concurrency: c.conc})
	return items
}

// exportInto captures a target's full state into its handoff record as
// a fresh checkpoint, current as of the core's last completed cycle, and
// truncates the record's tail. Health and latest are taken too, so a
// record exported outside the commit path (a live import) is whole.
//
//mantra:statetransfer root=handoff-export
func (c *shardCore) exportInto(r *targetCkpt, name string) {
	r.proc = c.Proc.ExportTarget(name)
	r.log, _ = c.Log.ExportTarget(name)
	r.stab = nil
	if rs := c.Engine.Stability(name); rs != nil {
		r.stab = rs.ExportState()
	}
	r.health, r.hasHealth = c.Collector.TargetHealth(name)
	r.latest = c.Engine.Latest(name)
	clear(r.tail)
	r.tail = r.tail[:0]
}

// exportOne captures a single live target's state as a tail-less
// record — the failback transfer path and the receiving side's
// post-import checkpoint. The caller stamps asOf.
func (c *shardCore) exportOne(name string) *targetCkpt {
	r := &targetCkpt{}
	c.exportInto(r, name)
	return r
}

// restoreTarget splices one target's handoff record into this core —
// the receiving side of a handoff or failback. The checkpoint is
// imported, every committed cycle past it is replayed through the same
// step archive recovery replays a WAL tail with, and the health ledger
// and latest snapshot are restored as of the last committed cycle. now
// anchors the restored breaker's cooldown.
//
//mantra:statetransfer root=handoff-import
func (c *shardCore) restoreTarget(name string, r *targetCkpt, now time.Time) {
	c.Proc.ImportTarget(name, r.proc)
	c.Log.ImportTarget(name, r.log)
	if r.stab != nil {
		c.Engine.SetStability(name, process.StabilityFromState(r.stab))
	} else {
		c.Engine.SetStability(name, nil)
	}
	for i := range r.tail {
		var ev logger.ReplayEvent
		if e := &r.tail[i]; e.Gap {
			ev = c.Log.ReplayGap(name, e.At, e.Reason)
		} else {
			ev = c.Log.Replay(name, e.Rec, e.FullEntries)
		}
		c.Engine.Replay(c.Proc, ev, true)
	}
	c.Collector.ResetTarget(name)
	if r.hasHealth {
		c.Collector.RestoreHealth(r.health, now)
	}
	c.Engine.SetLatest(name, r.latest)
}

// removeTarget drops a target's live state after it moved elsewhere.
// The delta logger keeps its (now stale) records — fleet views read
// through the assignment map, so they are unreachable, and a later
// re-import replaces them wholesale.
//
//mantra:statetransfer root=handoff-remove
func (c *shardCore) removeTarget(name string) {
	c.Proc.ImportTarget(name, nil)
	c.Engine.SetStability(name, nil)
	c.Engine.SetLatest(name, nil)
	c.Collector.ResetTarget(name)
}

// worker is one supervised shard: a core, the goroutine driving it, and
// the supervisor-side lifecycle bookkeeping.
type worker struct {
	idx int
	gen int

	core   *shardCore
	reqCh  chan cycleReq
	respCh chan cycleResp
	done   chan struct{}

	// mu guards the fields shared between the worker goroutine and the
	// supervisor: the scripted kill, the heartbeat and the per-target
	// handoff records.
	mu       sync.Mutex
	kill     KillMode
	lastBeat time.Time
	ckpt     map[string]*targetCkpt

	// Supervisor-owned lifecycle state (driver goroutine only).
	alive     bool
	deadAt    time.Time
	restartAt time.Time
	backoff   time.Duration
	restarts  int
	cycles    int
}

// loop is the worker goroutine: one request, one cycle, one response.
// Every exit path closes done — the supervisor's crash detector.
func (w *worker) loop() {
	defer close(w.done)
	for req := range w.reqCh {
		switch w.takeKill() {
		case KillBeforeCycle:
			return
		case KillMidCycle:
			// The cycle runs — in-memory state mutates, the WAL queue
			// fills — and then the worker dies before persisting,
			// checkpointing or responding. Nothing from this cycle
			// survives it.
			w.core.runCycle(req.now, req.targets)
			return
		case Wedge:
			w.respCh <- cycleResp{wedged: true}
			continue
		}
		items := w.core.runCycle(req.now, req.targets)
		err := w.core.Persist()
		w.commit(req.now)
		w.checkpointTurn(req.cycle, req.targets)
		w.respCh <- cycleResp{items: items, err: err}
	}
}

// commit beats the heartbeat and appends the cycle the group commit
// just persisted to the targets' handoff records: each entry joins its
// target's tail, next to the target's post-cycle health and latest
// snapshot. The entries were already built for the WAL, so this is
// bookkeeping only; once the tails have grown to their period, a cycle
// that is no target's checkpoint turn allocates nothing here.
//
//mantra:hotpath
func (w *worker) commit(now time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lastBeat = now
	pending := w.core.Pending()
	for i := range pending {
		w.commitEntry(&pending[i], now)
	}
}

// commitEntry appends one committed cycle to its target's record.
// Callers hold w.mu.
func (w *worker) commitEntry(e *engine.CycleEntry, now time.Time) {
	r := w.ckpt[e.Target]
	if r == nil {
		r = &targetCkpt{}
		w.ckpt[e.Target] = r
	}
	r.asOf = now
	r.tail = append(r.tail, *e)
	r.health, r.hasHealth = w.core.Collector.TargetHealth(e.Target)
	r.latest = w.core.Engine.Latest(e.Target)
}

// checkpointTurn exports, as a fresh checkpoint, every target whose
// staggered turn falls on this supervisor cycle, truncating its tail.
func (w *worker) checkpointTurn(cycle int, targets []collect.Target) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, t := range targets {
		if r := w.ckpt[t.Name]; r != nil && cycle%ckptPeriod == ckptPhase(t.Name) {
			w.core.exportInto(r, t.Name)
		}
	}
}

// takeKill reads the scripted fault. Crash modes are one-shot; Wedge
// persists until the supervisor declares the worker dead.
func (w *worker) takeKill() KillMode {
	w.mu.Lock()
	defer w.mu.Unlock()
	k := w.kill
	if k == KillBeforeCycle || k == KillMidCycle {
		w.kill = killNone
	}
	return k
}

// markDispatch seeds the heartbeat for a worker that has never beaten,
// so staleness is measured from its first dispatch, not from zero.
func (w *worker) markDispatch(now time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.lastBeat.IsZero() {
		w.lastBeat = now
	}
}

func (w *worker) beatAt() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastBeat
}

// record returns a target's handoff record. A target the worker never
// committed a cycle for or imported gets an empty one, which restores
// it from empty state.
func (w *worker) record(name string) *targetCkpt {
	w.mu.Lock()
	defer w.mu.Unlock()
	if r := w.ckpt[name]; r != nil {
		return r
	}
	return &targetCkpt{}
}

// setRecord installs (or, with nil, drops) a target's handoff record.
func (w *worker) setRecord(name string, r *targetCkpt) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if r == nil {
		delete(w.ckpt, name)
		return
	}
	w.ckpt[name] = r
}
