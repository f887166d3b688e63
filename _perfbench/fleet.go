package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/logger"
	"repro/internal/core/process"
	"repro/internal/core/shard"
	"repro/internal/core/tables"
	"repro/internal/netsim"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// fleetSpec describes a workload driven through shard.Supervisor.
type fleetSpec struct {
	domains int
	// faults turns on seeded session faults, per-shard WALs and a
	// scripted mid-cycle shard kill once per episode.
	faults bool
}

// Fleet-faults timeline: every episode of episodeCycles cycles kills one
// shard (alternating) mid-cycle at killAt; the next cycle hands its
// targets off and the one after restarts it and fails them back.
const (
	fleetShards   = 2
	episodeCycles = 10
	killAt        = 4
	setupReps     = 3
	heapAtCycle   = episodeCycles
	// Past the 2-hour prune lifetime, so forwarding state is steady.
	warmupSteps = 5
	// handoffGapReason mirrors the supervisor's gap reason for cycles
	// a target was blind during a handoff.
	handoffGapReason = "shard handoff: blind cycle"
)

// faultProfile injects every session fault except hang, which waits on
// wall-clock timeouts instead of exercising the monitor.
var faultProfile = router.FaultProfile{
	RefuseConn:  0.02,
	RejectLogin: 0.02,
	Truncate:    0.03,
	Garble:      0.03,
	Drop:        0.02,
}

// collectPolicy is every workload's collection policy.
func collectPolicy() collect.Policy {
	return collect.Policy{
		MaxAttempts: 3,
		// Keep the breaker out of the arithmetic: every target is
		// attempted every cycle, so each run does the same work.
		BreakerThreshold: 1 << 20,
		BreakerCooldown:  90 * time.Minute,
		Sleep:            func(time.Duration) {},
	}
}

// fleetNet is the simulated internetwork plus the generated target set.
type fleetNet struct {
	n          *netsim.Network
	names      []string
	faultSeeds []int64
	faults     bool
}

func newFleetNet(spec fleetSpec, sd seeds) (*fleetNet, error) {
	cfg := topo.ScaleInternetConfig(spec.domains, 100)
	cfg.Seed = sd.topo
	// No border aggregation: which domains aggregate is a per-domain
	// coin flip, and the count of heads would set every border's route
	// table size, and with it the run's numbers, differently per seed.
	cfg.AggregateFraction = 0
	inet := topo.BuildInternet(cfg)
	wcfg := workload.DefaultConfig()
	wcfg.Seed = sd.workload
	// No experimental bursts: one burst multiplies every target's mroute
	// dump for a few cycles, and whether a run's window held one would
	// decide its numbers.
	wcfg.ExperimentalBurstsPerDay = 0
	wl := workload.New(wcfg, inet.Topo)
	// The session population ramps up over the first simulated day.
	// Run the generator through the day before the network starts, so
	// the monitor meets a steady population and per-cycle work does not
	// grow with the number of cycles a run gets through.
	for t := sim.Epoch.Add(-24 * time.Hour); t.Before(sim.Epoch); {
		t = t.Add(30 * time.Minute)
		wl.Advance(t, 30*time.Minute)
	}
	ncfg := netsim.DefaultConfig()
	ncfg.Seed = sd.netsim
	n := netsim.New(inet, wl, ncfg)
	names := []string{"fixw", "ucsb-r1"}
	for d := 0; d < spec.domains; d++ {
		names = append(names, fmt.Sprintf("dom%02d-gw", d))
	}
	if err := n.Track(names...); err != nil {
		return nil, err
	}
	for _, name := range names {
		n.Router(name).Password = "pw"
	}
	for i := 0; i < warmupSteps; i++ {
		n.Step()
	}
	return &fleetNet{n: n, names: names, faultSeeds: sd.forTargets(len(names)), faults: spec.faults}, nil
}

// targets returns a fresh target set. Under faults each call wraps the
// routers in new fault layers whose streams restart from the same
// seeds, so every monitor built from a call sees the same faults.
func (f *fleetNet) targets() []collect.Target {
	out := make([]collect.Target, len(f.names))
	for i, name := range f.names {
		var h collect.SessionHandler = f.n.Router(name)
		if f.faults {
			h = router.NewFaultyRouter(f.n.Router(name), faultProfile, sim.NewRNG(f.faultSeeds[i]))
		}
		out[i] = collect.Target{
			Name:     name,
			Dialer:   collect.PipeDialer{Router: h},
			Password: "pw",
			Prompt:   name + "> ",
			Timeout:  5 * time.Second,
		}
	}
	return out
}

func (f *fleetNet) supervisor(spec fleetSpec, dataDir string) (*shard.Supervisor, error) {
	cfg := shard.Config{Shards: fleetShards, Policy: collectPolicy()}
	if spec.faults {
		cfg.DataDir = dataDir
		cfg.RestartBackoff = 30 * time.Minute
		cfg.MaxRestartBackoff = 30 * time.Minute
	}
	s, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, t := range f.targets() {
		s.Register(t)
	}
	return s, nil
}

func runFleet(spec fleetSpec, rc runConfig) (*outcome, error) {
	out := newOutcome()
	fn, err := newFleetNet(spec, rc.seeds)
	if err != nil {
		return nil, err
	}
	n := fn.n
	out.note("routers", len(n.Topo.Routers()))
	out.note("targets", len(fn.names))
	out.note("shards", fleetShards)

	// The network's own heap, so heap_mb can subtract it.
	base := heapMB()

	// Set-up: construct a supervisor and run its first, cold cycle, on
	// the same network state each time; the last one is kept.
	var s *shard.Supervisor
	var first *shard.CycleResult
	var setups []float64
	dataDir := ""
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			s.Close()
		}
		if spec.faults {
			dataDir = filepath.Join(rc.dir, fmt.Sprintf("fleet-%d", rep))
		}
		t0 := time.Now()
		s, err = fn.supervisor(spec, dataDir)
		if err != nil {
			return nil, err
		}
		first, err = s.RunCycle(n.Now())
		setups = append(setups, time.Since(t0).Seconds())
		out.attempted++
		if err != nil {
			out.failed++
			s.Close()
			return nil, err
		}
		if !spec.faults && (len(first.Blind) > 0 || len(first.Degraded) > 0) {
			out.gate("set-up cycle: blind=%v degraded=%v", first.Blind, first.Degraded)
		}
	}
	out.e2e("setup_s", median(setups), "s")
	out.sample("setup_s", len(setups))

	var rep *fleetReplica
	if rc.trace != nil {
		rep, err = newFleetReplica(fn, spec, rc, filepath.Join(rc.dir, "replica"))
		if err != nil {
			s.Close()
			return nil, err
		}
		defer rep.close()
		rep.cycle(n.Now(), s.Status().Assignment, -1, first, out)
	}

	var (
		cycles, steps  []float64
		monitorTime    time.Duration
		targetCycles   int
		blind          int
		blindOrDegr    int
		blindAt        = map[string][]time.Time{}
		allocMB, gcMs  []float64
		gcCount        []float64
		renderMs, dump []float64
		buildAllocMB   []float64
	)
	var heap float64
	deadline := time.Now().Add(rc.window)
	for i := 1; ; i++ {
		// Faulty fleets run whole episodes so every run sees the same
		// kill/handoff/failback mix per cycle.
		if i > heapAtCycle && time.Now().After(deadline) && (!spec.faults || (i-1)%episodeCycles == 0) {
			break
		}
		killed := -1
		if spec.faults && i%episodeCycles == killAt {
			killed = (i / episodeCycles) % fleetShards
			s.Kill(killed, shard.KillMidCycle)
		}
		t := time.Now()
		n.Step()
		steps = append(steps, ms(time.Since(t)))

		var before runtime.MemStats
		if rep != nil {
			runtime.ReadMemStats(&before)
		}
		now := n.Now()
		t0 := time.Now()
		res, err := s.RunCycle(now)
		d := time.Since(t0)
		out.attempted++
		if err != nil {
			out.failed++
			s.Close()
			return nil, err
		}
		if rep != nil {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
			gcMs = append(gcMs, float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
			gcCount = append(gcCount, float64(after.NumGC-before.NumGC))
		}
		cycles = append(cycles, ms(d))
		monitorTime += d
		targetCycles += len(fn.names)
		blindOrDegr += len(res.Blind) + len(res.Degraded)
		for _, name := range res.Blind {
			blindAt[name] = append(blindAt[name], now)
		}
		blind += len(res.Blind)
		for _, e := range res.WALErrs {
			out.gate("WAL: %v", e)
		}
		if !spec.faults && (len(res.Blind) > 0 || len(res.Degraded) > 0) {
			out.gate("cycle %d: blind=%v degraded=%v", i, res.Blind, res.Degraded)
		}
		if i == heapAtCycle {
			// The heap the supervisor retains, read at a fixed cycle so
			// a faster monitor, which runs more cycles, is not charged
			// for the longer history it then holds.
			heap = heapMB() - base
		}
		if rep != nil {
			rep.cycle(now, s.Status().Assignment, killed, res, out)
			r, b := renderTargets(n, fn.names)
			renderMs = append(renderMs, r)
			dump = append(dump, b)
			buildAllocMB = append(buildAllocMB, buildAlloc(rep.lastItems))
		}
	}
	st := s.Status()
	out.note("handoffs", st.Handoffs)
	out.note("targets_moved", st.TargetsMoved)

	out.cycleMetrics(cycles, monitorTime, targetCycles)
	out.e2e("failed_ops_pct", 100*float64(blindOrDegr)/float64(targetCycles), "%")

	out.e2e("heap_mb", heap, "MB")
	s.Close()
	var recoverMs []float64
	if spec.faults {
		recoverMs = checkBlindGaps(out, rc.dir, blindAt)
	}
	if rep != nil {
		out.layer("logger.recover_ms", mean(recoverMs))
		rep.layers(out, cycles, mean(renderMs))
		out.layer("router.render_ms", mean(renderMs))
		out.layer("router.dump_bytes", mean(dump))
		out.layer("tables.build_alloc_mb", mean(buildAllocMB))
		out.layer("runtime.alloc_mb_per_cycle", mean(allocMB))
		out.layer("runtime.gc_pause_ms", mean(gcMs))
		out.layer("runtime.gc_count", mean(gcCount))
		out.layer("sim.step_ms", mean(steps))
		out.layer("shard.handoffs", float64(st.Handoffs))
		out.layer("shard.blind_target_cycles", float64(blind))
	}
	return out, nil
}

// checkBlindGaps recovers every shard WAL and requires a gap marker for
// each target-cycle the supervisor reported blind. It returns how long
// each recovery took.
func checkBlindGaps(out *outcome, dir string, blindAt map[string][]time.Time) (recoverMs []float64) {
	marked := map[string]map[int64]bool{}
	for i := 0; i < fleetShards; i++ {
		t0 := time.Now()
		st, err := logger.OpenStore(filepath.Join(dir, fmt.Sprintf("fleet-%d", setupReps-1), fmt.Sprintf("shard-%02d", i)), logger.StoreOptions{})
		if err != nil {
			out.gate("open shard %d WAL: %v", i, err)
			continue
		}
		ra := st.Recover()
		recoverMs = append(recoverMs, ms(time.Since(t0)))
		for name := range blindAt {
			for _, g := range ra.Logger.Gaps(name) {
				if marked[name] == nil {
					marked[name] = map[int64]bool{}
				}
				marked[name][g.At.UnixNano()] = true
			}
		}
		if err := st.Close(); err != nil {
			out.gate("close shard %d WAL: %v", i, err)
		}
	}
	missing := 0
	for name, ats := range blindAt {
		for _, at := range ats {
			if !marked[name][at.UnixNano()] {
				missing++
			}
		}
	}
	if missing > 0 {
		out.gate("%d blind target-cycles have no gap marker in the shard WALs", missing)
	}
	return recoverMs
}

// renderTargets times Router.Execute on every standard command at each
// target, on the state the cycle just collected.
func renderTargets(n *netsim.Network, names []string) (totalMs, bytes float64) {
	for _, name := range names {
		r := n.Router(name)
		for _, cmd := range collect.StandardCommands {
			t := time.Now()
			outp := r.Execute(cmd)
			totalMs += ms(time.Since(t))
			bytes += float64(len(outp))
		}
	}
	return totalMs, bytes
}

func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// fleetReplica rebuilds shard.Supervisor's cycle from public calls: a
// core per shard, run concurrently, the same per-target export after
// each cycle, the same handoff and failback transfers, and the fleet
// fan-in. It follows the real supervisor's assignment and kills, so its
// statistics must equal the real run's.
type fleetReplica struct {
	tr      *Tracer
	spec    fleetSpec
	targets []collect.Target
	dir     string

	cores      []*core
	ckpts      []map[string]*targetExport
	owner      map[string]int
	cycleTimes []time.Time
	fleetProc  *process.Processor
	n          int

	// Per-cycle samples.
	lastItems []replicaItem
	handoffMs []float64
	skewMs    []float64
	attempts  int
	tcycles   int
	waitMs    []float64
	maxQueue  float64
}

func newFleetReplica(fn *fleetNet, spec fleetSpec, rc runConfig, dir string) (*fleetReplica, error) {
	r := &fleetReplica{
		tr:        rc.trace,
		spec:      spec,
		targets:   fn.targets(),
		dir:       dir,
		cores:     make([]*core, fleetShards),
		ckpts:     make([]map[string]*targetExport, fleetShards),
		owner:     map[string]int{},
		fleetProc: process.New(),
	}
	r.fleetProc.SetDetectors()
	for i := range r.cores {
		if err := r.spawn(i); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *fleetReplica) spawn(i int) error {
	c := newCore(collectPolicy(), 1, r.tr)
	c.groupCommit = true
	if r.spec.faults {
		st, err := logger.OpenStore(filepath.Join(r.dir, fmt.Sprintf("shard-%02d", i)), logger.StoreOptions{})
		if err != nil {
			return err
		}
		c.store = st
	}
	r.cores[i] = c
	return nil
}

func (r *fleetReplica) close() {
	for _, c := range r.cores {
		if c != nil && c.store != nil {
			_ = c.store.Close() // replica WALs are scratch; only their append time is measured
		}
	}
}

// cycle runs one replica cycle stamped now, after the real supervisor
// ran the same cycle with result real and published assign; killed is
// the shard scripted to die mid-cycle, or -1.
func (r *fleetReplica) cycle(now time.Time, assign map[string]int, killed int, real *shard.CycleResult, out *outcome) {
	r.n++
	cyc := r.tr.Begin("cycle", 0, r.n, "")
	r.cycleTimes = append(r.cycleTimes, now)
	if len(r.owner) == 0 {
		for name, sh := range assign {
			r.owner[name] = sh
		}
	}
	if err := r.handoff(now, assign, cyc); err != nil {
		out.gate("replica handoff: %v", err)
	}

	// Dispatch: every live core runs, targets in registration order.
	byCore := make([][]collect.Target, len(r.cores))
	for _, t := range r.targets {
		byCore[r.owner[t.Name]] = append(byCore[r.owner[t.Name]], t)
	}
	items := make([][]replicaItem, len(r.cores))
	busy := make([]time.Duration, len(r.cores))
	ran := make([]bool, len(r.cores))
	errs := make([]error, len(r.cores))
	var wg sync.WaitGroup
	for i, c := range r.cores {
		if c == nil {
			continue
		}
		ran[i] = true
		wg.Add(1)
		go func(i int, c *core) {
			defer wg.Done()
			t0 := time.Now()
			id := r.tr.Begin("shard.busy", cyc, r.n, fmt.Sprint(i))
			defer func() { r.tr.End(id); busy[i] = time.Since(t0) }()
			its, _ := c.run(now, r.n, id, byCore[i], false)
			for _, it := range its {
				items[i] = append(items[i], replicaItem{name: it.Target.Name, stats: it.Stats, snap: it.Snapshot, dumps: it.Res.Dumps, attempts: it.Res.Attempts})
			}
			if i == killed {
				return
			}
			c.parent = id
			errs[i] = c.persist()
			ex := r.tr.Begin("shard.export", id, r.n, "")
			ck := make(map[string]*targetExport, len(byCore[i]))
			for _, t := range byCore[i] {
				e := c.export(t.Name)
				e.asOf = now
				ck[t.Name] = e
			}
			r.tr.End(ex)
			r.ckpts[i] = ck
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			out.gate("replica shard %d WAL: %v", i, err)
		}
	}
	if killed >= 0 {
		if c := r.cores[killed]; c != nil && c.store != nil {
			_ = c.store.Close() // the killed shard persisted nothing this cycle
		}
		r.cores[killed] = nil
	}

	var lo, hi time.Duration
	first := true
	for i, b := range busy {
		if !ran[i] || len(byCore[i]) == 0 {
			continue
		}
		if first || b < lo {
			lo = b
		}
		if first || b > hi {
			hi = b
		}
		first = false
	}
	r.skewMs = append(r.skewMs, ms(hi-lo))

	// Gather: successful targets in registration order.
	statsOf := map[string]process.CycleStats{}
	var snaps []*tables.Snapshot
	var blind, degraded []string
	r.lastItems = r.lastItems[:0]
	for i := range items {
		for _, it := range items[i] {
			r.attempts += it.attempts
			r.tcycles++
			r.lastItems = append(r.lastItems, it)
			if i == killed {
				blind = append(blind, it.name)
				continue
			}
			if it.stats != nil {
				statsOf[it.name] = *it.stats
				snaps = append(snaps, it.snap)
			} else {
				degraded = append(degraded, it.name)
			}
		}
	}
	var stats []process.CycleStats
	for _, t := range r.targets {
		if st, ok := statsOf[t.Name]; ok {
			stats = append(stats, st)
		}
	}
	fan := r.tr.Begin("shard.fanin", cyc, r.n, "")
	var fleet *process.CycleStats
	if len(snaps) > 0 {
		merged := tables.MergeSnapshots(shard.FleetTarget, now, snaps...)
		st := r.fleetProc.Ingest(merged)
		fleet = &st
	} else {
		r.fleetProc.MarkGap(shard.FleetTarget, now)
	}
	r.tr.End(fan)
	r.tr.End(cyc)

	wait := 0.0
	for i, c := range r.cores {
		if !ran[i] || c == nil {
			continue
		}
		if rep := c.eng.LastReport(); rep != nil {
			wait += reorderWaitMs(rep)
			r.maxQueue = max(r.maxQueue, float64(rep.MaxQueueDepth))
		}
	}
	r.waitMs = append(r.waitMs, wait)

	sort.Strings(blind)
	sort.Strings(degraded)
	if !reflect.DeepEqual(stats, real.Stats) || !reflect.DeepEqual(fleet, real.FleetStats) {
		out.gate("replica cycle %d: statistics differ from the real supervisor's", r.n)
	}
	if !equalNames(blind, real.Blind) || !equalNames(degraded, real.Degraded) {
		out.gate("replica cycle %d: blind=%v degraded=%v, real blind=%v degraded=%v", r.n, blind, degraded, real.Blind, real.Degraded)
	}
}

// replicaItem keeps what the replica needs from one engine item after
// its cycle.
type replicaItem struct {
	name     string
	stats    *process.CycleStats
	snap     *tables.Snapshot
	dumps    []collect.Dump
	attempts int
}

func equalNames(a, b []string) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// handoff applies the real supervisor's assignment changes: targets of
// a dead core resume on their new owner from its last checkpoint, with
// gap markers for the cycles they were blind; targets leaving a live
// core (failback) transfer live. A restarted shard gets a fresh core.
func (r *fleetReplica) handoff(now time.Time, assign map[string]int, parent int) error {
	var moves []collect.Target
	for _, t := range r.targets {
		if assign[t.Name] != r.owner[t.Name] {
			moves = append(moves, t)
		}
	}
	if len(moves) == 0 {
		return nil
	}
	id := r.tr.Begin("shard.handoff", parent, r.n, "")
	defer r.tr.End(id)
	t0 := time.Now()
	for _, sh := range assign {
		if r.cores[sh] == nil {
			if err := r.spawn(sh); err != nil {
				return err
			}
		}
	}
	prev := time.Time{}
	for i := len(r.cycleTimes) - 1; i >= 0; i-- {
		if r.cycleTimes[i].Before(now) {
			prev = r.cycleTimes[i]
			break
		}
	}
	for _, t := range moves {
		src, dst := r.owner[t.Name], assign[t.Name]
		if r.cores[src] == nil {
			ex := r.ckpts[src][t.Name]
			asOf := time.Time{}
			if ex != nil {
				asOf = ex.asOf
			}
			r.cores[dst].importTarget(t.Name, ex, now)
			r.markBlind(r.cores[dst], t.Name, asOf, now)
		} else {
			ex := r.cores[src].export(t.Name)
			r.cores[dst].importTarget(t.Name, ex, now)
			r.cores[src].removeTarget(t.Name)
		}
		r.owner[t.Name] = dst
		// As refreshCkpt does: the receiver's checkpoint covers the
		// moved target from here on.
		e := r.cores[dst].export(t.Name)
		e.asOf = prev
		if r.ckpts[dst] == nil {
			r.ckpts[dst] = map[string]*targetExport{}
		}
		r.ckpts[dst][t.Name] = e
	}
	r.handoffMs = append(r.handoffMs, ms(time.Since(t0)))
	return nil
}

func (r *fleetReplica) markBlind(c *core, name string, asOf, now time.Time) {
	for _, ct := range r.cycleTimes {
		if !ct.After(asOf) || !ct.Before(now) {
			continue
		}
		c.proc.MarkGap(name, ct)
		c.log.MarkGap(name, ct, handoffGapReason)
		if c.store != nil {
			_ = c.store.AppendGap(name, ct, handoffGapReason) // replica WAL: timing only
		}
	}
}

// buildAlloc re-runs tables.BuildSnapshot on a cycle's dumps with
// nothing else running, and returns the megabytes it allocated.
func buildAlloc(items []replicaItem) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, it := range items {
		if it.dumps != nil {
			_, _ = tables.BuildSnapshot(it.dumps) // only its allocation is measured
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// layers derives the per-layer metrics from the replica's spans.
func (r *fleetReplica) layers(out *outcome, realCycles []float64, renderMs float64) {
	spans := r.tr.Spans()
	per := selfMsByName(spans)
	cycles := float64(r.n)
	out.layer("collect.self_ms", per["collect"]/cycles-renderMs)
	out.layer("collect.attempts_per_target", float64(r.attempts)/float64(max(r.tcycles, 1)))
	out.layer("tables.build_ms", per["tables.build"]/cycles)
	out.layer("logger.append_ms", per["logger.append"]/cycles)
	out.layer("logger.wal_append_ms", per["logger.wal_append"]/cycles)
	var walBytes float64
	for _, c := range r.cores {
		if c != nil && c.store != nil {
			walBytes += float64(c.store.Stats().AppendedBytes)
		}
	}
	out.layer("logger.wal_bytes", walBytes/cycles)
	out.layer("process.ingest_ms", per["process.ingest"]/cycles)
	out.layer("shard.export_ms", per["shard.export"]/cycles)
	out.layer("shard.fanin_ms", per["shard.fanin"]/cycles)
	out.layer("shard.skew_ms", mean(r.skewMs))
	out.layer("shard.handoff_ms", mean(r.handoffMs))
	out.layer("engine.reorder_wait_ms", mean(r.waitMs))
	out.layer("engine.max_queue_depth", r.maxQueue)
	out.layer("engine.overhead_ms", per["engine.run"]/cycles)
	out.traceOverhead(spans, realCycles)
}
