package engine

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/logger"
	"repro/internal/core/process"
	"repro/internal/core/tables"
)

// Core is the one wiring of the paper's pipeline onto the engine's
// stage slots: the resilient collector, the delta logger, the data
// processor and the cycle engine, with an optional durable WAL. The
// Monitor and every shard worker run their cycles through a Core; they
// differ only in the hooks they set (Publish, Merge) and in what they
// do after Persist.
//
// WAL writes are group-committed. The Log stage updates the in-memory
// logger and queues the cycle's frames in registration order, the
// aggregate last; Persist writes them once the engine run is over. A
// caller can therefore fence persistence (the shard worker's kill
// check), and a checkpoint taken after Persist never precedes its own
// cycle's frames.
type Core struct {
	Collector *collect.Collector
	Log       *logger.Logger
	Proc      *process.Processor
	Engine    *Engine
	// Store is the durable WAL the queued frames are persisted to; nil
	// keeps the core in memory only.
	Store *logger.Store
	// Commands is the dump set collected from every target each cycle.
	Commands []string
	// Publish, when set, receives every successful snapshot, and the
	// aggregate view, after it has been ingested.
	Publish func(target string, sn *tables.Snapshot)
	// Merge builds the aggregate view from a cycle's successful
	// snapshots; it must be set for runs with Options.Aggregate.
	Merge func(now time.Time, snaps []*tables.Snapshot) *tables.Snapshot

	// pending holds the current cycle's WAL frames in the order the
	// ordered stages logged them.
	pending []CycleEntry
}

// CycleEntry is one target's outcome of one cycle as the group commit
// writes it: a delta record (Rec, stamped Rec.At) or, with Gap set, a
// gap marker stamped At.
type CycleEntry struct {
	Target      string
	Gap         bool
	At          time.Time
	Reason      string
	Rec         logger.CycleRecord
	FullEntries uint64
}

// NewCore returns a core over collector with a fresh delta logger and
// processor, collecting commands each cycle; clock is the engine's
// instrumentation clock (nil means real monotonic time).
func NewCore(collector *collect.Collector, commands []string, clock Clock) *Core {
	c := &Core{
		Collector: collector,
		Log:       logger.New(),
		Proc:      process.New(),
		Commands:  commands,
	}
	c.Engine = New(Stages{
		Collect:   c.stageCollect,
		Normalize: c.stageNormalize,
		Log:       c.stageLog,
		Ingest:    c.stageIngest,
		Publish:   c.stagePublish,
		Aggregate: c.stageAggregate,
	}, clock)
	return c
}

// Run executes one engine cycle over targets, queueing the cycle's WAL
// frames for Persist.
func (c *Core) Run(now time.Time, targets []collect.Target, opts Options) ([]*Item, *process.CycleStats, *CycleReport) {
	c.pending = c.pending[:0]
	return c.Engine.Run(now, targets, opts)
}

// Pending returns the frames the last cycle queued, in registration
// order. The slice is reused by the next cycle.
func (c *Core) Pending() []CycleEntry { return c.pending }

// Persist writes the last cycle's queued frames to the store in
// registration order. Every frame is tried, so one failed append never
// drops the frames after it; the failures come back joined.
func (c *Core) Persist() error {
	if c.Store == nil {
		return nil
	}
	return persist(c.Store, c.pending)
}

// walWriter is the part of *logger.Store the group commit writes
// through.
type walWriter interface {
	AppendDelta(target string, rec logger.CycleRecord, fullEntries uint64) error
	AppendGap(target string, at time.Time, reason string) error
}

func persist(w walWriter, frames []CycleEntry) error {
	var errs []error
	for i := range frames {
		e := &frames[i]
		var err error
		if e.Gap {
			err = w.AppendGap(e.Target, e.At, e.Reason)
		} else {
			err = w.AppendDelta(e.Target, e.Rec, e.FullEntries)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// stageCollect runs the resilient collection of one target (breaker
// check, retries, dump validation). Safe for concurrent use across
// targets — the collector serializes its own bookkeeping.
//
//mantra:hotpath
func (c *Core) stageCollect(it *Item, now time.Time) {
	it.Res = c.Collector.Collect(it.Target, c.Commands, now)
}

// stageNormalize maps the raw dumps onto the local tables. A parse
// failure counts against the target's breaker: a router emitting
// unparseable dumps is as unhealthy as one refusing logins. The budget
// is the error-path fmt.Errorf wrap.
//
//mantra:hotpath budget=1
func (c *Core) stageNormalize(it *Item, now time.Time) {
	sn, err := tables.BuildSnapshot(it.Res.Dumps)
	if err != nil {
		err = fmt.Errorf("collect %s: snapshot rejected: %w", it.Target.Name, err)
		c.Collector.RecordFailure(it.Target.Name, now, err)
		it.Res.Status = collect.StatusDegraded
		it.Res.Err = err
		return
	}
	it.Snapshot = sn
}

// stageLog appends the cycle to the delta log and queues its WAL frame;
// a failed target gets an explicit gap marker instead.
//
//mantra:hotpath
func (c *Core) stageLog(it *Item, now time.Time) {
	if it.Snapshot == nil {
		reason := ""
		if it.Res.Err != nil {
			reason = it.Res.Err.Error()
		}
		c.Log.MarkGap(it.Res.Target, now, reason)
		c.pending = append(c.pending, CycleEntry{Target: it.Res.Target, Gap: true, At: now, Reason: reason})
		return
	}
	c.logSnapshot(it.Snapshot)
}

// logSnapshot appends one snapshot to the delta log and queues its
// frame.
func (c *Core) logSnapshot(sn *tables.Snapshot) {
	rec := c.Log.Append(sn)
	c.pending = append(c.pending, CycleEntry{
		Target:      sn.Target,
		Rec:         rec,
		FullEntries: uint64(len(sn.Pairs) + len(sn.Routes)),
	})
}

// stageIngest feeds the snapshot into the data processor; failed
// targets get a gap marker on their series instead.
func (c *Core) stageIngest(it *Item, now time.Time) {
	if it.Snapshot == nil {
		c.Proc.MarkGap(it.Res.Target, now)
		return
	}
	st := c.Proc.Ingest(it.Snapshot)
	it.Stats = &st
}

// stagePublish hands a successful snapshot to the Publish hook.
func (c *Core) stagePublish(it *Item, _ time.Time) {
	if it.Snapshot != nil && c.Publish != nil {
		c.Publish(it.Snapshot.Target, it.Snapshot)
	}
}

// stageAggregate merges the cycle's successful snapshots into the
// aggregate view and runs it through the same log, ingest and publish
// path; its frame joins the cycle's queue last.
func (c *Core) stageAggregate(now time.Time, snaps []*tables.Snapshot) *process.CycleStats {
	agg := c.Merge(now, snaps)
	c.logSnapshot(agg)
	st := c.Proc.Ingest(agg)
	c.Engine.SetLatest(agg.Target, agg)
	if c.Publish != nil {
		c.Publish(agg.Target, agg)
	}
	return &st
}
