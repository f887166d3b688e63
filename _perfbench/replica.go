package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/core/collect"
	"repro/internal/core/engine"
	"repro/internal/core/logger"
	"repro/internal/core/output"
	"repro/internal/core/process"
	"repro/internal/core/tables"
)

// core is the traced replica of one pipeline wiring — the Monitor's or
// one shard worker's — built from the same public calls they make, so
// each stage can be wrapped in a span from outside the program. The
// untraced run never builds one.
type core struct {
	coll  *collect.Collector
	log   *logger.Logger
	proc  *process.Processor
	eng   *engine.Engine
	store *logger.Store
	conc  int
	tr    *Tracer

	// server is set for the Monitor replica, which publishes summary
	// tables and runs the aggregate stage; shard workers do neither.
	server *output.Server
	// groupCommit buffers WAL frames until the cycle is over, as shard
	// workers do; the Monitor writes through from the Log stage.
	groupCommit bool

	// Per-cycle span context, set before engine.Run starts its workers.
	cycle  int
	parent int

	pendDeltas []pendDelta
	pendGaps   []pendGap
}

type pendDelta struct {
	target      string
	rec         logger.CycleRecord
	fullEntries uint64
}

type pendGap struct {
	target string
	at     time.Time
	reason string
}

func newCore(policy collect.Policy, conc int, tr *Tracer) *core {
	c := &core{
		coll: collect.NewCollector(policy),
		log:  logger.New(),
		proc: process.New(),
		conc: conc,
		tr:   tr,
	}
	c.eng = engine.New(c.stages(), nil)
	return c
}

func (c *core) span(name, target string) int { return c.tr.Begin(name, c.parent, c.cycle, target) }

func (c *core) stages() engine.Stages {
	st := engine.Stages{
		Collect: func(it *engine.Item, now time.Time) {
			id := c.span("collect", it.Target.Name)
			it.Res = c.coll.Collect(it.Target, collect.StandardCommands, now)
			c.tr.End(id)
		},
		Normalize: func(it *engine.Item, now time.Time) {
			id := c.span("tables.build", it.Target.Name)
			defer c.tr.End(id)
			sn, err := tables.BuildSnapshot(it.Res.Dumps)
			if err != nil {
				err = fmt.Errorf("collect %s: snapshot rejected: %w", it.Target.Name, err)
				c.coll.RecordFailure(it.Target.Name, now, err)
				it.Res.Status = collect.StatusDegraded
				it.Res.Err = err
				return
			}
			it.Snapshot = sn
		},
		Log: func(it *engine.Item, now time.Time) {
			id := c.span("logger.append", it.Target.Name)
			defer c.tr.End(id)
			if it.Snapshot == nil {
				reason := ""
				if it.Res.Err != nil {
					reason = it.Res.Err.Error()
				}
				c.log.MarkGap(it.Res.Target, now, reason)
				c.appendGap(id, it.Res.Target, now, reason)
				return
			}
			rec := c.log.Append(it.Snapshot)
			c.appendDelta(id, it.Snapshot.Target, rec, uint64(len(it.Snapshot.Pairs)+len(it.Snapshot.Routes)))
		},
		Ingest: func(it *engine.Item, now time.Time) {
			id := c.span("process.ingest", it.Target.Name)
			defer c.tr.End(id)
			if it.Snapshot == nil {
				c.proc.MarkGap(it.Res.Target, now)
				return
			}
			s := c.proc.Ingest(it.Snapshot)
			it.Stats = &s
		},
		Publish: func(it *engine.Item, _ time.Time) {
			if c.server == nil || it.Snapshot == nil {
				return
			}
			id := c.span("output.publish", it.Target.Name)
			refreshTables(c.server, it.Snapshot.Target, it.Snapshot)
			c.tr.End(id)
		},
	}
	st.Aggregate = func(now time.Time, snaps []*tables.Snapshot) *process.CycleStats {
		id := c.span("process.aggregate", mantra.AggregateTarget)
		defer c.tr.End(id)
		agg := tables.MergeSnapshots(mantra.AggregateTarget, now, snaps...)
		rec := c.log.Append(agg)
		c.appendDelta(id, mantra.AggregateTarget, rec, uint64(len(agg.Pairs)+len(agg.Routes)))
		s := c.proc.Ingest(agg)
		c.eng.SetLatest(mantra.AggregateTarget, agg)
		refreshTables(c.server, mantra.AggregateTarget, agg)
		return &s
	}
	return st
}

// appendDelta persists one delta: buffered under group commit, written
// through otherwise.
func (c *core) appendDelta(parent int, target string, rec logger.CycleRecord, full uint64) {
	if c.groupCommit {
		c.pendDeltas = append(c.pendDeltas, pendDelta{target, rec, full})
		return
	}
	if c.store == nil {
		return
	}
	id := c.tr.Begin("logger.wal_append", parent, c.cycle, target)
	_ = c.store.AppendDelta(target, rec, full) // the real run reports archive errors; the replica only times the call
	c.tr.End(id)
}

func (c *core) appendGap(parent int, target string, at time.Time, reason string) {
	if c.groupCommit {
		c.pendGaps = append(c.pendGaps, pendGap{target, at, reason})
		return
	}
	if c.store == nil {
		return
	}
	id := c.tr.Begin("logger.wal_append", parent, c.cycle, target)
	_ = c.store.AppendGap(target, at, reason) // as in appendDelta
	c.tr.End(id)
}

// run executes one engine cycle under an "engine.run" span whose self
// time is the engine's own overhead.
func (c *core) run(now time.Time, cycle, parent int, targets []collect.Target, aggregate bool) ([]*engine.Item, *process.CycleStats) {
	c.cycle = cycle
	c.parent = c.tr.Begin("engine.run", parent, cycle, "")
	c.pendDeltas = c.pendDeltas[:0]
	c.pendGaps = c.pendGaps[:0]
	items, agg, _ := c.eng.Run(now, targets, engine.Options{Concurrency: c.conc, Aggregate: aggregate})
	c.tr.End(c.parent)
	c.parent = parent
	return items, agg
}

// persist group-commits the cycle's buffered WAL frames, as a shard
// worker does after its kill check.
func (c *core) persist() error {
	if c.store == nil {
		return nil
	}
	id := c.span("logger.wal_append", "")
	defer c.tr.End(id)
	for _, d := range c.pendDeltas {
		if err := c.store.AppendDelta(d.target, d.rec, d.fullEntries); err != nil {
			return err
		}
	}
	for _, g := range c.pendGaps {
		if err := c.store.AppendGap(g.target, g.at, g.reason); err != nil {
			return err
		}
	}
	return nil
}

// targetExport is one target's transferable state, as a shard worker's
// checkpoint holds it.
type targetExport struct {
	asOf      time.Time
	proc      *process.TargetState
	log       logger.TargetState
	hasLog    bool
	stab      *process.StabilityState
	health    collect.TargetHealth
	hasHealth bool
	latest    *tables.Snapshot
}

func (c *core) export(name string) *targetExport {
	ex := &targetExport{proc: c.proc.ExportTarget(name), latest: c.eng.Latest(name)}
	ex.log, ex.hasLog = c.log.ExportTarget(name)
	if rs := c.eng.Stability(name); rs != nil {
		ex.stab = rs.ExportState()
	}
	ex.health, ex.hasHealth = c.coll.TargetHealth(name)
	return ex
}

// importTarget splices a moved target's state in — the receiving side
// of a handoff or failback.
func (c *core) importTarget(name string, ex *targetExport, now time.Time) {
	if ex == nil {
		ex = &targetExport{}
	}
	c.proc.ImportTarget(name, ex.proc)
	if ex.hasLog {
		c.log.ImportTarget(name, ex.log)
	}
	if ex.stab != nil {
		c.eng.SetStability(name, process.StabilityFromState(ex.stab))
	} else {
		c.eng.SetStability(name, nil)
	}
	c.coll.ResetTarget(name)
	if ex.hasHealth {
		c.coll.RestoreHealth(ex.health, now)
	}
	c.eng.SetLatest(name, ex.latest)
}

// removeTarget drops a target that moved elsewhere.
func (c *core) removeTarget(name string) {
	c.proc.ImportTarget(name, nil)
	c.eng.SetStability(name, nil)
	c.eng.SetLatest(name, nil)
	c.coll.ResetTarget(name)
}

// refreshTables mirrors the Monitor's publish step: the per-target
// busiest-sessions, top-senders and route-metric tables.
func refreshTables(server *output.Server, name string, sn *tables.Snapshot) {
	busiest := output.NewTable("busiest-"+name, "group", "density", "kbps", "protocol")
	for _, s := range process.BusiestSessions(sn, 20) {
		_ = busiest.AddRow(output.Str(s.Group.String()), output.Num(float64(s.Density)), output.Num(s.TotalRateKbps), output.Str(s.Protocol))
	}
	server.RegisterTable(busiest)

	senders := output.NewTable("senders-"+name, "host", "groups", "max_kbps")
	for _, p := range process.TopSenders(sn, 20) {
		_ = senders.AddRow(output.Str(p.Host.String()), output.Num(float64(p.Groups)), output.Num(p.MaxRateKbps))
	}
	server.RegisterTable(senders)

	routes := output.NewTable("routes-"+name, "metric", "count")
	rs := process.SummarizeRoutes(sn)
	for metric := 0; metric <= 64; metric++ {
		if c := rs.MetricCounts[metric]; c > 0 {
			_ = routes.AddRow(output.Num(float64(metric)), output.Num(float64(c)))
		}
	}
	server.RegisterTable(routes)
}
