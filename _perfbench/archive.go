package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/core/collect"
	"repro/internal/core/engine"
	"repro/internal/core/logger"
	"repro/internal/core/output"
	"repro/internal/core/process"
	"repro/internal/core/tsdb"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Archive-incidents timeline, per round: warm-up cycles for the
// detectors' baselines, then each library incident in turn — held for
// incidentCycles, followed by cycles until its anomaly resolves and a
// few more to settle — then a timed restart from the archive.
const (
	archiveDomains  = 5 // the Quick paper-scale internetwork
	checkpointEvery = 12
	warmupCycles    = 10
	incidentCycles  = 5
	settleCycles    = 3
	queryRatePerS   = 100
	archiveConc     = 3
)

// archiveTargets is the incident library's watch set.
var archiveTargets = []string{"fixw", "ucsb-r1", "dom00-gw"}

func newArchiveNet(sd seeds) (*netsim.Network, error) {
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = archiveDomains
	cfg.Seed = sd.topo
	cfg.AggregateFraction = 0 // as in the fleets; see newFleetNet
	inet := topo.BuildInternet(cfg)
	wcfg := workload.DefaultConfig()
	wcfg.Seed = sd.workload
	ncfg := netsim.DefaultConfig()
	ncfg.Seed = sd.netsim
	// Scripted incidents only: a random flap could open an anomaly
	// that the detection-lag gate would misattribute.
	ncfg.FlapPerDomainPerCycle = 0
	ncfg.RestartPerCycle = 0
	n := netsim.New(inet, workload.New(wcfg, inet.Topo), ncfg)
	if err := n.Track(archiveTargets...); err != nil {
		return nil, err
	}
	for _, name := range archiveTargets {
		n.Router(name).Password = "pw"
	}
	n.Step()
	n.Step()
	n.TransitionDomain("dom00")
	return n, nil
}

func archiveTargetList(n *netsim.Network) []collect.Target {
	out := make([]collect.Target, len(archiveTargets))
	for i, name := range archiveTargets {
		out[i] = collect.Target{
			Name:     name,
			Dialer:   collect.PipeDialer{Router: n.Router(name)},
			Password: "pw",
			Prompt:   name + "> ",
			Timeout:  5 * time.Second,
		}
	}
	return out
}

// newMonitor builds the monitor the way a deployment would and opens its
// archive, resuming when resume is set.
func newMonitor(n *netsim.Network, dir string, resume bool) (*mantra.Monitor, error) {
	m := mantra.New()
	m.SetCollectPolicy(collectPolicy())
	for _, t := range archiveTargetList(n) {
		m.AddTarget(t)
	}
	m.EnableAggregation()
	_, err := m.EnableArchive(mantra.ArchiveConfig{Dir: dir, CheckpointEvery: checkpointEvery, Resume: resume})
	return m, err
}

// guarded is the monitor the reader queries. Monitor is not safe for
// reads concurrent with a cycle, so the cycle loop and the reader
// take turns under mu; a query that arrives mid-cycle waits for it, and
// that wait counts in its latency.
type guarded struct {
	mu sync.Mutex
	m  *mantra.Monitor
}

func runArchive(rc runConfig) (*outcome, error) {
	out := newOutcome()
	g := &guarded{}
	deadline := time.Now().Add(rc.window)
	ar := &archiveRun{rc: rc, out: out, g: g, deadline: deadline, stop: make(chan struct{}), readerDone: make(chan *readerStats, 1), incidents: map[string]incidentOutcome{}}
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		if err := ar.round(round); err != nil {
			ar.stopReader()
			return nil, err
		}
	}
	rs := ar.stopReader()
	out.attempted += rs.requests
	out.failed += rs.non200
	for _, e := range rs.mismatches {
		out.gate("%s", e)
	}

	out.note("rounds", ar.rounds)
	out.e2e("setup_s", median(ar.setups), "s")
	out.sample("setup_s", len(ar.setups))
	out.cycleMetrics(ar.cycles, ar.monitorTime, ar.targetCycles)
	out.e2e("recovery_s", median(ar.recoveries), "s")
	out.sample("recovery_s", len(ar.recoveries))
	out.e2e("detect_lag_cycles", mean(ar.lags), "cycles")
	out.sample("detect_lag_cycles", len(ar.lags))
	out.note("incidents", ar.incidents)
	out.e2e("query_p50_us", percentile(rs.latencyUs, 50), "us")
	if t, ok := percentileWithBeyond(rs.latencyUs, 99); ok {
		out.e2e("query_p99_us", t.Value, "us")
		out.sample("query_p99_us", t)
	}
	out.sample("queries", len(rs.latencyUs))
	ops := ar.targetCycles + rs.requests
	out.e2e("failed_ops_pct", 100*float64(ar.failedTargetCycles+rs.non200)/float64(max(ops, 1)), "%")
	out.e2e("heap_mb", median(ar.heapMB), "MB")

	if rc.trace != nil {
		spans := rc.trace.Spans()
		per := selfMsByName(spans)
		c := float64(len(ar.replicaCycles))
		out.layer("router.render_ms", mean(ar.renderMs))
		out.layer("router.dump_bytes", mean(ar.dumpBytes))
		out.layer("collect.self_ms", per["collect"]/c-mean(ar.renderMs))
		out.layer("collect.attempts_per_target", float64(ar.attempts)/float64(max(ar.replicaTargetCycles, 1)))
		out.layer("tables.build_ms", per["tables.build"]/c)
		out.layer("tables.build_alloc_mb", mean(ar.buildAllocMB))
		out.layer("logger.append_ms", per["logger.append"]/c)
		out.layer("logger.wal_append_ms", per["logger.wal_append"]/c)
		out.layer("logger.wal_bytes", ar.walBytes/c)
		out.layer("logger.checkpoint_ms", mean(ar.checkpointMs))
		out.layer("logger.checkpoint_bytes", mean(ar.checkpointBytes))
		out.layer("logger.recover_ms", mean(ar.recoverMs))
		out.layer("process.ingest_ms", per["process.ingest"]/c)
		out.layer("tsdb.query_us", median(rs.directUs))
		out.layer("output.serve_self_us", median(rs.serveSelfUs))
		out.layer("query.gen_late_ms", median(rs.lateMs))
		out.layer("engine.reorder_wait_ms", mean(ar.waitMs))
		out.layer("engine.max_queue_depth", ar.maxQueue)
		out.layer("engine.overhead_ms", per["engine.run"]/c)
		out.layer("runtime.alloc_mb_per_cycle", mean(ar.allocMB))
		out.layer("runtime.gc_pause_ms", mean(ar.gcMs))
		out.layer("runtime.gc_count", mean(ar.gcCount))
		out.layer("sim.step_ms", mean(ar.steps))
		out.traceOverhead(spans, ar.cycles)
	}
	return out, nil
}

// archiveRun accumulates one archive-incidents run across its rounds.
type archiveRun struct {
	rc  runConfig
	out *outcome
	g   *guarded

	// The reader starts once the first monitor is up and stops at the
	// deadline or when the run ends.
	deadline      time.Time
	stop          chan struct{}
	readerDone    chan *readerStats
	readerStarted bool

	rounds             int
	setups, recoveries []float64
	cycles, steps      []float64
	monitorTime        time.Duration
	targetCycles       int
	failedTargetCycles int
	lags               []float64
	heapMB             []float64
	incidents          map[string]incidentOutcome

	// Traced run only.
	replicaCycles       []float64
	replicaTargetCycles int
	attempts            int
	renderMs, dumpBytes []float64
	buildAllocMB        []float64
	allocMB, gcMs       []float64
	gcCount             []float64
	waitMs              []float64
	maxQueue            float64
	walBytes            float64
	checkpointMs        []float64
	checkpointBytes     []float64
	recoverMs           []float64
}

// stopReader stops the reader, waits for it to return, and hands back
// what it saw.
func (ar *archiveRun) stopReader() *readerStats {
	close(ar.stop)
	if !ar.readerStarted {
		return &readerStats{}
	}
	return <-ar.readerDone
}

// round runs one monitor's life: set-up, the incident library back to
// back, and a restart from its archive.
func (ar *archiveRun) round(round int) error {
	ar.rounds++
	n, err := newArchiveNet(ar.rc.seeds.sub(round))
	if err != nil {
		return err
	}
	dir := filepath.Join(ar.rc.dir, fmt.Sprintf("archive-%d", round))
	n.Step()

	t0 := time.Now()
	m, err := newMonitor(n, dir, false)
	if err != nil {
		return err
	}
	firstStats, err := m.RunCycleConcurrent(n.Now())
	ar.setups = append(ar.setups, time.Since(t0).Seconds())
	ar.out.attempted++
	if err != nil {
		ar.out.failed++
		return err
	}
	ar.g.mu.Lock()
	ar.g.m = m
	ar.g.mu.Unlock()
	if !ar.readerStarted {
		ar.readerStarted = true
		go func() { ar.readerDone <- runReader(ar.g, time.Until(ar.deadline), ar.stop) }()
	}

	var rep *archiveReplica
	if ar.rc.trace != nil {
		rep, err = newArchiveReplica(ar, n, filepath.Join(ar.rc.dir, fmt.Sprintf("replica-%d", round)))
		if err != nil {
			return err
		}
		rep.cycle(n.Now(), firstStats)
	}

	cycle := func() error {
		t := time.Now()
		n.Step()
		ar.steps = append(ar.steps, ms(time.Since(t)))
		now := n.Now()
		var before, after runtime.MemStats
		ar.g.mu.Lock()
		if rep != nil {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		stats, err := m.RunCycleConcurrent(now)
		d := time.Since(t0)
		if rep != nil {
			runtime.ReadMemStats(&after)
		}
		results := m.LastResults()
		report := m.LastCycleReport()
		ar.g.mu.Unlock()
		ar.out.attempted++
		if err != nil {
			ar.out.failed++
			return err
		}
		ar.cycles = append(ar.cycles, ms(d))
		ar.monitorTime += d
		ar.targetCycles += len(results)
		for _, r := range results {
			if r.Stats == nil {
				ar.failedTargetCycles++
			}
		}
		if rep != nil {
			ar.allocMB = append(ar.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
			ar.gcMs = append(ar.gcMs, float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
			ar.gcCount = append(ar.gcCount, float64(after.NumGC-before.NumGC))
			ar.waitMs = append(ar.waitMs, reorderWaitMs(report))
			ar.maxQueue = max(ar.maxQueue, float64(report.MaxQueueDepth))
			rep.cycle(now, stats)
			r, b := renderTargets(n, archiveTargets)
			ar.renderMs = append(ar.renderMs, r)
			ar.dumpBytes = append(ar.dumpBytes, b)
			ar.buildAllocMB = append(ar.buildAllocMB, buildAlloc(rep.lastItems))
		}
		return nil
	}

	for i := 0; i < warmupCycles; i++ {
		if err := cycle(); err != nil {
			return err
		}
	}
	for _, name := range netsim.LibraryScenarios() {
		sc, err := netsim.LibraryScenario(name, 1, incidentCycles)
		if err != nil {
			return err
		}
		if err := ar.incident(round, n, m, sc, cycle); err != nil {
			return err
		}
	}

	// Restart from the archive, as after a crash: the old monitor is
	// abandoned without a final checkpoint, so recovery loads the last
	// periodic checkpoint and replays the WAL tail.
	ar.g.mu.Lock()
	if st := m.ArchiveStatus(); st.LastAppendError != "" || st.MirrorError != "" {
		ar.out.gate("round %d: archive write failed: %q %q", round, st.LastAppendError, st.MirrorError)
	}
	before := materialize(m)
	t0 = time.Now()
	m2, err := newMonitor(n, dir, true)
	d := time.Since(t0)
	ar.out.attempted++
	if err != nil {
		ar.out.failed++
		ar.g.mu.Unlock()
		return err
	}
	ar.recoveries = append(ar.recoveries, d.Seconds())
	if after := materialize(m2); !reflect.DeepEqual(before, after) {
		ar.out.gate("round %d: materialized series differ after restart", round)
	}
	ar.g.m = m2
	ar.g.mu.Unlock()

	// The heap the old monitor retained at the end of its life: live
	// heap with it, minus live heap once it is unreachable.
	with := heapMB()
	runtime.KeepAlive(m)
	ar.heapMB = append(ar.heapMB, with-heapMB())
	if rep != nil {
		rep.finish()
	}
	return nil
}

// ungated lists library scenarios whose detection is reported but not
// gated. The sa-storm contract (200 SAs at fixw, open within 2 cycles)
// holds only while fixw's SA cache is small, as in the first hours
// after boot: at the Quick internetwork's steady state the storm does
// not double the cache, so the factor-2 spike detector stays quiet, and
// natural session bursts open sa-storm episodes at fixw whose frozen
// baselines never resolve, masking the scripted storm.
var ungated = map[string]bool{"sa-storm": true}

// incidentOutcome counts how one scenario fared across rounds.
type incidentOutcome struct {
	Detected int `json:"detected"`
	Late     int `json:"late_or_missed"`
	Masked   int `json:"masked"`
}

// incident runs one library scenario on the live monitor and checks
// that its anomaly opens at the primary watch target within the
// scenario's bound. The detector keeps one open episode per kind and
// target; when one is already open at the primary as the incident
// starts, the incident cannot open its own and is counted as masked.
// The round then runs a fixed number of cycles, so every round does
// the same work.
func (ar *archiveRun) incident(round int, n *netsim.Network, m *mantra.Monitor, sc netsim.Scenario, cycle func() error) error {
	primary := sc.Watch[0]
	start := n.Now()
	open := func(since time.Time) bool {
		ar.g.mu.Lock()
		defer ar.g.mu.Unlock()
		for _, a := range m.Anomalies() {
			if a.Kind == sc.DetectKind && a.Target == primary && a.At.After(since) && !a.Resolved {
				return true
			}
		}
		return false
	}
	masked := open(time.Time{})
	if err := n.ScheduleScenario(sc); err != nil {
		return err
	}
	lag := 0
	for off := 1; off <= incidentCycles+sc.MaxResolveCycles+settleCycles; off++ {
		if err := cycle(); err != nil {
			return err
		}
		if lag == 0 && off <= incidentCycles && open(start) {
			lag = off
		}
	}
	oc := ar.incidents[sc.Name]
	switch {
	case masked:
		oc.Masked++
	case lag == 0 || lag > sc.MaxDetectCycles:
		oc.Late++
		if !ungated[sc.Name] {
			ar.out.gate("round %d: %s at %s opened after %d cycles (0 = never), bound %d", round, sc.DetectKind, primary, lag, sc.MaxDetectCycles)
		}
	default:
		oc.Detected++
		if !ungated[sc.Name] {
			ar.lags = append(ar.lags, float64(lag))
		}
	}
	ar.incidents[sc.Name] = oc
	return nil
}

// seriesKey identifies one materialized series.
type seriesKey struct {
	target string
	metric process.Metric
}

// seriesBits is a series with values as bit patterns, so NaN compares
// equal to itself.
type seriesBits struct {
	Times   []time.Time
	Values  []uint64
	Gaps    []time.Time
	Dropped int
}

func reorderWaitMs(rep *engine.CycleReport) float64 {
	var wait int64
	for _, tc := range rep.PerTarget {
		wait += tc.WaitNs
	}
	return float64(wait) / 1e6
}

func materialize(m *mantra.Monitor) map[seriesKey]seriesBits {
	out := map[seriesKey]seriesBits{}
	for _, t := range append(append([]string(nil), archiveTargets...), mantra.AggregateTarget) {
		for _, metric := range process.AllMetrics {
			s := m.MaterializedSeries(t, metric)
			if s == nil {
				continue
			}
			sb := seriesBits{Times: s.Times, Gaps: s.Gaps, Dropped: s.Dropped}
			for _, v := range s.Values {
				sb.Values = append(sb.Values, math.Float64bits(v))
			}
			out[seriesKey{t, metric}] = sb
		}
	}
	return out
}

// archiveReplica rebuilds the Monitor's wiring — including the
// aggregate stage, published tables, write-through archive and periodic
// checkpoint — from public calls, and runs it on the same network state
// as the real monitor each cycle.
type archiveReplica struct {
	ar        *archiveRun
	c         *core
	targets   []collect.Target
	dir       string
	n         int
	since     int
	lastItems []replicaItem
}

func newArchiveReplica(ar *archiveRun, n *netsim.Network, dir string) (*archiveReplica, error) {
	c := newCore(collectPolicy(), archiveConc, ar.rc.trace)
	c.server = output.NewServer(c.proc)
	st, err := logger.OpenStore(dir, logger.StoreOptions{})
	if err != nil {
		return nil, err
	}
	c.store = st
	if err := c.proc.Store().AttachDir(filepath.Join(dir, "tsdb"), false); err != nil {
		return nil, err
	}
	return &archiveReplica{ar: ar, c: c, targets: archiveTargetList(n), dir: dir}, nil
}

// ckptExtra mirrors the monitor-level state the Monitor checkpoints
// beside its delta log.
type ckptExtra struct {
	Proc      *process.State
	Stability map[string]*process.StabilityState
	Health    []collect.TargetHealth
}

func (r *archiveReplica) cycle(now time.Time, real []mantra.CycleStats) {
	r.n++
	tr := r.ar.rc.trace
	cyc := tr.Begin("cycle", 0, len(r.ar.replicaCycles)+1, "")
	t0 := time.Now()
	items, agg := r.c.run(now, len(r.ar.replicaCycles)+1, cyc, r.targets, true)
	var stats []mantra.CycleStats
	r.lastItems = r.lastItems[:0]
	for _, it := range items {
		r.ar.attempts += it.Res.Attempts
		r.ar.replicaTargetCycles++
		r.lastItems = append(r.lastItems, replicaItem{name: it.Target.Name, dumps: it.Res.Dumps})
		if it.Stats != nil {
			stats = append(stats, *it.Stats)
		}
	}
	if agg != nil {
		stats = append(stats, *agg)
	}
	r.since++
	if r.since >= checkpointEvery {
		r.checkpoint(cyc, now)
	}
	tr.End(cyc)
	r.ar.replicaCycles = append(r.ar.replicaCycles, ms(time.Since(t0)))
	if !reflect.DeepEqual(stats, real) {
		r.ar.out.gate("replica cycle %d: statistics differ from the real monitor's", r.n)
	}
}

func (r *archiveReplica) checkpoint(parent int, now time.Time) {
	tr := r.ar.rc.trace
	id := tr.Begin("logger.checkpoint", parent, len(r.ar.replicaCycles)+1, "")
	t0 := time.Now()
	trackers := r.c.eng.StabilityTrackers()
	extra := ckptExtra{
		Proc:      r.c.proc.ExportState(),
		Stability: make(map[string]*process.StabilityState, len(trackers)),
		Health:    r.c.coll.Health(),
	}
	for target, rs := range trackers {
		extra.Stability[target] = rs.ExportState()
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(extra)
	if err == nil {
		err = r.c.store.WriteCheckpoint(r.c.log, buf.Bytes(), now)
	}
	tr.End(id)
	if err != nil {
		r.ar.out.gate("replica checkpoint: %v", err)
		return
	}
	r.ar.checkpointMs = append(r.ar.checkpointMs, ms(time.Since(t0)))
	r.ar.checkpointBytes = append(r.ar.checkpointBytes, float64(newestCheckpointSize(r.dir)))
	r.since = 0
}

func newestCheckpointSize(dir string) int64 {
	files, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ck"))
	if len(files) == 0 {
		return 0
	}
	fi, err := os.Stat(files[len(files)-1]) // names sort by WAL position
	if err != nil {
		return 0
	}
	return fi.Size()
}

// finish closes the replica's archive and times recovering it.
func (r *archiveReplica) finish() {
	r.ar.walBytes += float64(r.c.store.Stats().AppendedBytes)
	if err := r.c.store.Close(); err != nil {
		r.ar.out.gate("replica archive close: %v", err)
	}
	_ = r.c.proc.Store().CloseDir() // mirror of a scratch archive
	t0 := time.Now()
	st, err := logger.OpenStore(r.dir, logger.StoreOptions{})
	if err != nil {
		r.ar.out.gate("replica archive reopen: %v", err)
		return
	}
	st.Recover()
	r.ar.recoverMs = append(r.ar.recoverMs, ms(time.Since(t0)))
	_ = st.Close() // read only
}

// readerStats is what the open-loop reader observed.
type readerStats struct {
	requests, non200 int
	latencyUs        []float64
	lateMs           []float64
	directUs         []float64
	serveSelfUs      []float64
	mismatches       []string
}

// queryMix is the reader's fixed request rotation: ranged, aggregate,
// top-k and downsampled /query reads, a ranged /series, the anomaly
// feed and a summary table.
func queryMix() []string {
	from := sim.Epoch.Format(time.RFC3339)
	to := sim.Epoch.AddDate(0, 0, 60).Format(time.RFC3339)
	rng := "&from=" + url.QueryEscape(from) + "&to=" + url.QueryEscape(to)
	return []string{
		"/query?metric=routes&op=range&target=fixw" + rng,
		"/query?metric=sessions&op=avg",
		"/query?metric=routes&op=topk&k=2&by=max",
		"/query?metric=participants&op=range&tier=10",
		"/series/dom00-gw/sa_cache?limit=50" + rng,
		"/anomalies",
		"/tables/busiest-fixw",
	}
}

// runReader issues the query mix at queryRatePerS until window elapses
// or stop closes. Each /query body is checked against a direct
// Monitor.Query on the same state.
func runReader(g *guarded, window time.Duration, stop <-chan struct{}) *readerStats {
	rs := &readerStats{}
	mix := queryMix()
	ol := openLoop{start: time.Now(), interval: time.Second / queryRatePerS}
	end := ol.start.Add(window)
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i := 0; ; i++ {
		due := ol.due(i)
		if !due.Before(end) {
			return rs
		}
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return rs
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return rs
			default:
			}
		}
		path := mix[i%len(mix)]
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		sent := time.Now()
		g.mu.Lock()
		t0 := time.Now()
		g.m.Handler().ServeHTTP(rec, req)
		done := time.Now()
		var direct time.Duration
		if strings.HasPrefix(path, "/query") && rec.Code == http.StatusOK {
			d, err := checkQuery(g.m, req, rec.Body.Bytes())
			direct = d
			if err != nil && len(rs.mismatches) < 5 {
				rs.mismatches = append(rs.mismatches, fmt.Sprintf("%s: %v", path, err))
			}
		}
		g.mu.Unlock()
		lat, late := ol.record(i, sent, done)
		rs.requests++
		if rec.Code != http.StatusOK {
			rs.non200++
		}
		rs.latencyUs = append(rs.latencyUs, us(lat))
		rs.lateMs = append(rs.lateMs, ms(late))
		if direct > 0 {
			rs.directUs = append(rs.directUs, us(direct))
			rs.serveSelfUs = append(rs.serveSelfUs, us(done.Sub(t0)-direct))
		}
	}
}

// queryBody mirrors the /query wire shape.
type queryBody struct {
	Metric  string `json:"metric"`
	Op      string `json:"op"`
	Targets []struct {
		Target string `json:"target"`
		Points []struct {
			T   time.Time `json:"t"`
			V   float64   `json:"v"`
			Gap bool      `json:"gap"`
		} `json:"points"`
		Agg *tsdb.Agg `json:"agg"`
	} `json:"targets"`
}

// checkQuery runs the request's query directly on the monitor, times
// it, and compares the result with the served body.
func checkQuery(m *mantra.Monitor, req *http.Request, body []byte) (time.Duration, error) {
	q, err := parseQueryURL(req.URL.Query())
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	want, err := m.Query(q)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	var got queryBody
	if err := json.Unmarshal(body, &got); err != nil {
		return d, err
	}
	if got.Metric != want.Metric || got.Op != string(want.Op) || len(got.Targets) != len(want.Targets) {
		return d, fmt.Errorf("served %s/%s with %d targets, direct %s/%s with %d", got.Metric, got.Op, len(got.Targets), want.Metric, want.Op, len(want.Targets))
	}
	for i, wt := range want.Targets {
		gt := got.Targets[i]
		if gt.Target != wt.Target || len(gt.Points) != len(wt.Points) || !reflect.DeepEqual(gt.Agg, wt.Agg) {
			return d, fmt.Errorf("target %s differs", wt.Target)
		}
		for j, wp := range wt.Points {
			gp := gt.Points[j]
			if gp.T.UnixNano() != wp.T || gp.Gap != wp.Gap || math.Float64bits(gp.V) != math.Float64bits(wp.V) {
				return d, fmt.Errorf("target %s point %d differs", wt.Target, j)
			}
		}
	}
	return d, nil
}

// parseQueryURL builds the query the reader asked for from its URL
// parameters — only the ones queryMix uses.
func parseQueryURL(v url.Values) (tsdb.Query, error) {
	q := tsdb.Query{Targets: v["target"], Metric: v.Get("metric"), Op: tsdb.Op(v.Get("op")), By: v.Get("by")}
	if q.Op == "" {
		q.Op = tsdb.OpRange
	}
	for _, b := range []struct {
		key string
		dst *int64
	}{{"from", &q.From}, {"to", &q.To}} {
		if s := v.Get(b.key); s != "" {
			t, err := time.Parse(time.RFC3339, s)
			if err != nil {
				return q, err
			}
			*b.dst = t.UnixNano()
		}
	}
	if k := v.Get("k"); k != "" {
		if _, err := fmt.Sscan(k, &q.K); err != nil {
			return q, err
		}
	}
	switch v.Get("tier") {
	case "10":
		q.Tier = tsdb.Tier10
	case "100":
		q.Tier = tsdb.Tier100
	}
	return q, nil
}
