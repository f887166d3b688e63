// Fan-in views: after every cycle the supervisor rebuilds the merged
// fleet snapshot, the fleet anomaly log, the per-target health rows and
// the /shards status, and publishes them under the view mutex for HTTP
// readers. All four are deterministic functions of the per-shard state
// and the assignment map — gathered in registration or sorted order,
// never in map-iteration order — which is what keeps the fleet output
// byte-identical across shard counts.
package shard

import (
	"sort"

	"repro/internal/core/collect"
	"repro/internal/core/process"
	"repro/internal/core/tables"
	"repro/internal/core/tsdb"
)

// publish recomputes and swaps in the reader-facing views. Driver
// goroutine only; the workers are idle when it runs.
func (s *Supervisor) publish(merged *tables.Snapshot) {
	st := s.buildStatus()
	anoms := s.fleetAnomalies()
	health := s.fleetHealth()

	s.mu.Lock()
	s.status = st
	if merged != nil {
		s.lastMerged = merged
	}
	s.lastAnoms = anoms
	s.lastHealth = health
	s.mu.Unlock()
}

func (s *Supervisor) buildStatus() FleetStatus {
	st := FleetStatus{
		Assignment:       make(map[string]int, len(s.assign)),
		Handoffs:         s.handoffs,
		TargetsMoved:     s.moved,
		HeartbeatTimeout: s.cfg.HeartbeatTimeout,
		Cycle:            s.cycle,
	}
	for name, sh := range s.assign {
		st.Assignment[name] = sh
	}
	for i, w := range s.workers {
		row := ShardStatus{Index: i}
		if w != nil {
			row.Alive = w.alive
			row.Generation = w.gen
			row.Restarts = w.restarts
			row.Cycles = w.cycles
			row.LastBeat = w.beatAt()
			row.DeadSince = w.deadAt
			row.RestartAt = w.restartAt
		}
		for _, t := range s.targets {
			if sh, ok := s.assign[t.Name]; ok && sh == i {
				row.Targets = append(row.Targets, t.Name)
			}
		}
		sort.Strings(row.Targets)
		st.Shards = append(st.Shards, row)
	}
	return st
}

// fleetAnomalies merges the per-shard anomaly logs into one fleet log.
// Each target's episodes are read from its owning shard only — after a
// handoff the moved copies live there, re-keyed. The episode rings are
// append-only, so a target that bounced away and back leaves its owner
// holding both the original copies and the re-imported ones; the
// (target, kind, open-time) key is unique per episode, and the highest
// local ID — the most recent import — carries the current resolution
// state. The deduped log is sorted by (At, Target, Kind) and re-keyed
// with fleet-level IDs, making it independent of shard count, gather
// order and handoff history.
func (s *Supervisor) fleetAnomalies() []process.Anomaly {
	type key struct {
		target, kind string
		at           int64
	}
	best := make(map[key]process.Anomaly)
	for i, w := range s.workers {
		if w == nil {
			continue
		}
		owned := make(map[string]bool)
		for name, sh := range s.assign {
			if sh == i {
				owned[name] = true
			}
		}
		if len(owned) == 0 {
			continue
		}
		for _, an := range w.core.Proc.Anomalies() {
			if !owned[an.Target] {
				continue
			}
			k := key{target: an.Target, kind: an.Kind, at: an.At.UnixNano()}
			if prev, ok := best[k]; !ok || an.ID > prev.ID {
				best[k] = an
			}
		}
	}
	out := make([]process.Anomaly, 0, len(best))
	for _, an := range best {
		out = append(out, an)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].At.Equal(out[j].At) {
			return out[i].At.Before(out[j].At)
		}
		if out[i].Target != out[j].Target {
			return out[i].Target < out[j].Target
		}
		return out[i].Kind < out[j].Kind
	})
	for i := range out {
		out[i].ID = i + 1
	}
	return out
}

// fleetHealth builds the per-target health rows in registration order:
// the owning shard's collection ledger plus the gap count, so handoff
// blind windows and breaker state are visible in one place.
func (s *Supervisor) fleetHealth() []TargetHealthView {
	out := make([]TargetHealthView, 0, len(s.targets))
	for _, t := range s.targets {
		row := TargetHealthView{
			TargetHealth: collect.TargetHealth{Target: t.Name},
			Shard:        -1,
		}
		if sh, ok := s.assign[t.Name]; ok {
			row.Shard = sh
			w := s.workers[sh]
			if h, hok := w.core.Collector.TargetHealth(t.Name); hok {
				row.TargetHealth = h
			}
			if sr := w.core.Proc.Series(t.Name, process.MetricRoutes); sr != nil {
				row.GapCount = sr.GapCount()
			}
		}
		out = append(out, row)
	}
	return out
}

// Status returns the last published /shards view. Safe from any
// goroutine.
func (s *Supervisor) Status() FleetStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status
}

// Merged returns the last merged fleet snapshot, nil before the first
// successful cycle. Safe from any goroutine.
func (s *Supervisor) Merged() *tables.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastMerged
}

// FleetAnomalies returns the last published fleet anomaly log. Safe
// from any goroutine.
func (s *Supervisor) FleetAnomalies() []process.Anomaly {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastAnoms
}

// FleetHealth returns the last published per-target health rows. Safe
// from any goroutine.
func (s *Supervisor) FleetHealth() []TargetHealthView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastHealth
}

// FleetProc exposes the fleet-level processor (merged series, no
// detectors). Driver goroutine only.
func (s *Supervisor) FleetProc() *process.Processor { return s.fleetProc }

// TargetSeries reads a target's metric series from its owning shard,
// nil when the target is unassigned or unseen. Driver goroutine only —
// the same rule as Monitor.Series.
func (s *Supervisor) TargetSeries(name string, m process.Metric) *process.Series {
	sh, ok := s.assign[name]
	if !ok {
		return nil
	}
	return s.workers[sh].core.Proc.Series(name, m)
}

// SeriesView resolves a target's series through the last *published*
// assignment, for HTTP readers: the live assign map may be mid-rewrite
// during a handoff, but the published copy is mu-guarded and only
// swaps between cycles. The series itself is read with the same
// between-cycle quiescence contract Monitor.Series gives /series in
// the unsharded daemon.
func (s *Supervisor) SeriesView(name string, m process.Metric) *process.Series {
	s.mu.Lock()
	sh, ok := s.status.Assignment[name]
	s.mu.Unlock()
	if !ok || sh < 0 || sh >= len(s.workers) {
		// Not a shard-owned target: the fleet-level series ("fleet")
		// live in the aggregation processor.
		return s.fleetProc.Series(name, m)
	}
	w := s.workers[sh]
	if w == nil {
		return nil
	}
	return w.core.Proc.Series(name, m)
}

// QueryFleet executes a store query across the fleet: each target is
// answered by its owning shard's long-horizon store (the fleet-level
// synthetic targets by the aggregation processor's), and the per-target
// rows are merged with tsdb.Assemble — the same split execution a
// single store uses internally, so the result bytes are identical at
// any shard count. Resolution goes through the last *published*
// assignment like SeriesView, with the same between-cycle quiescence
// contract for the store reads.
func (s *Supervisor) QueryFleet(q tsdb.Query) (tsdb.Result, error) {
	// The published assignment map is rebuilt wholesale each publish and
	// never mutated afterwards, so holding the reference past the unlock
	// is safe.
	s.mu.Lock()
	assign := s.status.Assignment
	s.mu.Unlock()

	names := q.Targets
	if len(names) == 0 {
		seen := make(map[string]bool)
		for name := range assign {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
		for _, name := range s.fleetProc.Store().Targets() {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
		sort.Strings(names)
	}

	parts := make([]tsdb.TargetResult, 0, len(names))
	for _, name := range names {
		store := s.fleetProc.Store()
		if sh, ok := assign[name]; ok && sh >= 0 && sh < len(s.workers) && s.workers[sh] != nil {
			store = s.workers[sh].core.Proc.Store()
		}
		tr, err := store.QueryTarget(q, name)
		if err != nil {
			return tsdb.Result{}, err
		}
		parts = append(parts, tr)
	}
	return tsdb.Assemble(q, parts), nil
}

// MaterializedView reads a target's full-history series from its owning
// shard's store (or the aggregation processor's for fleet-level names),
// through the published assignment — the sharded counterpart of
// Monitor.MaterializedSeries, backing ranged /series reads.
func (s *Supervisor) MaterializedView(name string, m process.Metric) *process.Series {
	s.mu.Lock()
	sh, ok := s.status.Assignment[name]
	s.mu.Unlock()
	if !ok || sh < 0 || sh >= len(s.workers) {
		return s.fleetProc.MaterializedSeries(name, m)
	}
	w := s.workers[sh]
	if w == nil {
		return nil
	}
	return w.core.Proc.MaterializedSeries(name, m)
}
