// Command mantra is the monitoring daemon: it polls the configured router
// CLIs on an interval, processes the dumps through the full Mantra
// pipeline, and serves results over HTTP — the paper's web-based output
// interface.
//
//	mantra -target fixw=127.0.0.1:2601 -target ucsb-r1=127.0.0.1:2602 \
//	       -password mantra -interval 2s -http 127.0.0.1:8080
//
// Collection is resilient: each target gets per-cycle retries with
// backoff, a circuit breaker that opens after repeated failed cycles, and
// structural dump validation. A failing target degrades the cycle instead
// of aborting it; per-target health is printed each cycle and served at
// /health. With -max-consecutive-failures N the daemon exits non-zero
// once every target is breaker-open with at least N consecutive failures,
// so a fully dead deployment fails loudly instead of spinning.
//
// With -data-dir the archive is durable: every delta and gap marker goes
// to a checksummed write-ahead log with periodic full-state checkpoints,
// and a restart recovers the series, tables and health ledger to their
// pre-crash values (at most the final partial record is lost).
//
// Collection runs through the pipelined cycle engine on a bounded worker
// pool (-concurrency N, default min(8, targets); 1 is the serial
// schedule, with byte-identical results); -stats prints the engine's
// per-stage timings each cycle, and the same instrumentation is served
// at /stats.
//
// Detected anomalies (route injection, RP loss, SA storms, route leaks,
// route flapping) are logged once when they open and once when they
// resolve, and served with full episode state at /anomalies;
// -max-anomalies caps the retained episode ring.
//
// With -shards N (N > 1), collection runs through the fault-tolerant
// shard supervisor instead of the single monitor: targets are
// consistent-hash-assigned across N supervised shard workers, each with
// its own WAL under -data-dir/shard-NN, and the merged fleet view is
// what the HTTP endpoints serve. A shard that crashes or stops
// heartbeating (-shard-heartbeat, measured in cycle time) is declared
// dead at the next cycle boundary; its targets hand off to the
// survivors with their health ledger, breaker state and open anomaly
// episodes intact, and the shard restarts under bounded backoff.
// Per-shard liveness, assignment and handoff counts are served at
// /shards.
//
// With -series-retain N the in-memory hot rings are bounded to the
// newest N points; the compressed long-horizon store keeps full history
// and backs /query and the ranged form of /series either way.
//
// Endpoints: /  /series/<target>/<metric>[?from=&to=&limit=]
// /graph/<target>/<metric>  /tables/<name>  /anomalies  /health
// /archive  /stats  /shards  /query?metric=&op=&target=&from=&to=&k=&by=&tier=
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	mantra "repro"
	"repro/internal/core/collect"
	"repro/internal/core/output"
	"repro/internal/core/process"
	"repro/internal/core/shard"
)

type targetFlags []string

func (t *targetFlags) String() string { return strings.Join(*t, ",") }
func (t *targetFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	var targets targetFlags
	flag.Var(&targets, "target", "name=addr pair, e.g. fixw=127.0.0.1:2601 (repeatable)")
	password := flag.String("password", "mantra", "CLI password")
	interval := flag.Duration("interval", 5*time.Second, "polling interval (wall clock)")
	httpAddr := flag.String("http", "127.0.0.1:8080", "HTTP address serving results")
	cycles := flag.Int("cycles", 0, "stop after N cycles (0 = run forever)")
	concurrency := flag.Int("concurrency", 0, "collection worker pool size (0 = min(8, targets); 1 = serial)")
	showStats := flag.Bool("stats", false, "print per-cycle engine stage timings")
	aggregate := flag.Bool("aggregate", false, "publish a combined multi-router view")
	retries := flag.Int("retries", 3, "collection attempts per target per cycle")
	retryBase := flag.Duration("retry-base", 100*time.Millisecond, "backoff before the first retry (doubles per retry)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive failed cycles before a target's circuit breaker opens")
	breakerCooldown := flag.Duration("breaker-cooldown", time.Minute, "how long an open breaker waits before a half-open probe")
	maxConsecFail := flag.Int("max-consecutive-failures", 0, "exit non-zero once every target is breaker-open with at least this many consecutive failures (0 disables)")
	showHealth := flag.Bool("health", true, "print per-target collection health each cycle")
	dataDir := flag.String("data-dir", "", "durable archive directory; empty disables archival")
	checkpointEvery := flag.Int("checkpoint-every", 12, "cycles between full-state checkpoints")
	resume := flag.Bool("resume", true, "recover existing archive data on start (with -data-dir)")
	archiveSync := flag.Bool("archive-sync", false, "fsync the archive after every record (durable to the last cycle, slower)")
	maxAnomalies := flag.Int("max-anomalies", 0, "cap on retained anomaly episodes, oldest resolved evicted first (0 = default cap)")
	shards := flag.Int("shards", 1, "shard worker count; >1 runs the fault-tolerant shard supervisor")
	shardHeartbeat := flag.Duration("shard-heartbeat", 0, "declare a shard dead when its last completed cycle is older than this (cycle time; 0 = crash detection only)")
	seriesRetain := flag.Int("series-retain", 0, "bound the in-memory hot series rings to the newest N points; the compressed store retains full history (0 = unbounded rings)")
	flag.Parse()

	if len(targets) == 0 {
		targets = targetFlags{"fixw=127.0.0.1:2601", "ucsb-r1=127.0.0.1:2602"}
	}

	if *shards > 1 {
		runSharded(shardedConfig{
			targets:  targets,
			password: *password,
			interval: *interval,
			httpAddr: *httpAddr,
			cycles:   *cycles,
			cfg: shard.Config{
				Shards:           *shards,
				HeartbeatTimeout: *shardHeartbeat,
				Policy: collect.Policy{
					MaxAttempts:      *retries,
					BaseDelay:        *retryBase,
					BreakerThreshold: *breakerThreshold,
					BreakerCooldown:  *breakerCooldown,
				},
				Concurrency:     *concurrency,
				MaxAnomalies:    *maxAnomalies,
				SeriesRetain:    *seriesRetain,
				DataDir:         *dataDir,
				SyncEveryAppend: *archiveSync,
			},
			showHealth: *showHealth,
		})
		return
	}

	m := mantra.New()
	m.SetCollectPolicy(collect.Policy{
		MaxAttempts:      *retries,
		BaseDelay:        *retryBase,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	})
	if *aggregate {
		m.EnableAggregation()
	}
	if *maxAnomalies > 0 {
		m.SetMaxAnomalies(*maxAnomalies)
	}
	if *seriesRetain > 0 {
		m.SetSeriesRetain(*seriesRetain)
	}
	if *concurrency > 0 {
		m.SetConcurrency(*concurrency)
	}
	for _, spec := range targets {
		parts := strings.SplitN(spec, "=", 2)
		if len(parts) != 2 {
			log.Fatalf("mantra: bad -target %q (want name=addr)", spec)
		}
		m.AddTarget(mantra.Target{
			Name:     parts[0],
			Dialer:   collect.TCPDialer{Addr: parts[1]},
			Password: *password,
			Prompt:   parts[0] + "> ",
			Timeout:  10 * time.Second,
		})
	}

	if *dataDir != "" {
		report, err := m.EnableArchive(mantra.ArchiveConfig{
			Dir:             *dataDir,
			CheckpointEvery: *checkpointEvery,
			SyncEveryAppend: *archiveSync,
			Resume:          *resume,
		})
		if err != nil {
			log.Fatalf("mantra: archive: %v", err)
		}
		if report.Resumed {
			log.Printf("mantra: archive resumed from %s: %d targets, %d cycles + %d gaps replayed after checkpoint %s",
				*dataDir, len(report.Targets), report.CyclesReplayed, report.GapsReplayed,
				report.CheckpointAt.Format(time.RFC3339))
			if report.Stats.TornTail {
				log.Printf("mantra: archive tail repaired: %s (%d bytes discarded)",
					report.Stats.TailError, report.Stats.TruncatedBytes)
			}
			if report.Stats.CorruptCheckpoints > 0 {
				log.Printf("mantra: archive skipped %d corrupt checkpoint(s)", report.Stats.CorruptCheckpoints)
			}
		} else {
			log.Printf("mantra: archiving to %s (checkpoint every %d cycles)", *dataDir, *checkpointEvery)
		}
	}

	go func() {
		log.Printf("mantra: serving results on http://%s/", *httpAddr)
		if err := http.ListenAndServe(*httpAddr, m.Handler()); err != nil {
			log.Fatalf("mantra: http: %v", err)
		}
	}()

	anoms := newAnomalyLog()
	for i := 0; *cycles == 0 || i < *cycles; i++ {
		now := time.Now().UTC() //mantralint:allow wallclock composition root: live monitoring stamps cycles with real time and injects it downward
		stats, err := m.RunCycleConcurrent(now)
		if err != nil {
			log.Printf("mantra: cycle degraded: %v", err)
		}
		printStats(now, stats)
		if *showStats {
			if rep := m.LastCycleReport(); rep != nil {
				fmt.Printf("%s engine cycle=%d workers=%d targets=%d failed=%d wall=%s queue_peak=%d collect=%s normalize=%s log=%s ingest=%s publish=%s\n",
					now.Format("15:04:05"), rep.Cycle, rep.Concurrency, rep.Targets, rep.Failed,
					rep.Wall().Round(time.Microsecond), rep.MaxQueueDepth,
					rep.StageTotal("collect").Round(time.Microsecond),
					rep.StageTotal("normalize").Round(time.Microsecond),
					rep.StageTotal("log").Round(time.Microsecond),
					rep.StageTotal("ingest").Round(time.Microsecond),
					rep.StageTotal("publish").Round(time.Microsecond))
			}
		}
		health := m.Health()
		if *showHealth {
			for _, h := range health {
				last := "never"
				if !h.LastSuccess.IsZero() {
					last = h.LastSuccess.Format("15:04:05")
				}
				line := fmt.Sprintf("%s %-10s health breaker=%-9s consecutive_failures=%-3d last_success=%s",
					now.Format("15:04:05"), h.Target, h.Breaker, h.ConsecutiveFailures, last)
				if h.LastError != "" {
					line += " last_error=" + h.LastError
				}
				fmt.Println(line)
			}
		}
		if *maxConsecFail > 0 && allBreakerOpen(health, *maxConsecFail) {
			log.Printf("mantra: every target is breaker-open with >=%d consecutive failures; giving up", *maxConsecFail)
			if err := m.CloseArchive(now); err != nil {
				log.Printf("mantra: archive close: %v", err)
			}
			os.Exit(1)
		}
		anoms.log(m.Anomalies())
		time.Sleep(*interval)
	}
	if err := m.CloseArchive(time.Now().UTC()); err != nil { //mantralint:allow wallclock composition root: final checkpoint stamped with real time
		log.Fatalf("mantra: archive close: %v", err)
	}
}

// shardedConfig carries the flag set into the sharded daemon loop.
type shardedConfig struct {
	targets    targetFlags
	password   string
	interval   time.Duration
	httpAddr   string
	cycles     int
	cfg        shard.Config
	showHealth bool
}

// runSharded is the -shards N daemon loop: the shard supervisor drives
// collection, and the HTTP server publishes the merged fleet views —
// the fleet series, the re-keyed fleet anomaly log, per-target health
// with gap counts, and the /shards supervisor status.
func runSharded(sc shardedConfig) {
	s, err := shard.New(sc.cfg)
	if err != nil {
		log.Fatalf("mantra: shards: %v", err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			log.Printf("mantra: shard wal close: %v", err)
		}
	}()
	for _, spec := range sc.targets {
		parts := strings.SplitN(spec, "=", 2)
		if len(parts) != 2 {
			log.Fatalf("mantra: bad -target %q (want name=addr)", spec)
		}
		s.Register(collect.Target{
			Name:     parts[0],
			Dialer:   collect.TCPDialer{Addr: parts[1]},
			Password: sc.password,
			Prompt:   parts[0] + "> ",
			Timeout:  10 * time.Second,
		})
	}

	srv := output.NewServer(s.FleetProc())
	srv.SetShards(func() any { return s.Status() })
	srv.SetHealth(func() any { return s.FleetHealth() })
	srv.SetAnomalies(func() []process.Anomaly { return s.FleetAnomalies() })
	srv.SetSeries(s.SeriesView)
	srv.SetQuery(s.QueryFleet)
	go func() {
		log.Printf("mantra: serving fleet results on http://%s/ (%d shards)", sc.httpAddr, sc.cfg.Shards)
		if err := http.ListenAndServe(sc.httpAddr, srv); err != nil {
			log.Fatalf("mantra: http: %v", err)
		}
	}()

	anoms := newAnomalyLog()
	for i := 0; sc.cycles == 0 || i < sc.cycles; i++ {
		now := time.Now().UTC() //mantralint:allow wallclock composition root: live monitoring stamps cycles with real time and injects it downward
		res, err := s.RunCycle(now)
		if err != nil {
			log.Fatalf("mantra: shard cycle: %v", err)
		}
		printStats(now, res.Stats)
		if res.Handoffs > 0 {
			log.Printf("mantra: %d shard handoff(s) at this boundary; blind=%v", res.Handoffs, res.Blind)
		} else if len(res.Blind) > 0 {
			log.Printf("mantra: blind targets this cycle: %v", res.Blind)
		}
		for _, werr := range res.WALErrs {
			log.Printf("mantra: shard wal: %v", werr)
		}
		if sc.showHealth {
			for _, h := range s.FleetHealth() {
				last := "never"
				if !h.LastSuccess.IsZero() {
					last = h.LastSuccess.Format("15:04:05")
				}
				fmt.Printf("%s %-10s health shard=%-2d breaker=%-9s consecutive_failures=%-3d gaps=%-3d last_success=%s\n",
					now.Format("15:04:05"), h.Target, h.Shard, h.Breaker, h.ConsecutiveFailures, h.GapCount, last)
			}
		}
		anoms.log(s.FleetAnomalies())
		time.Sleep(sc.interval)
	}
}

// printStats prints one line of cycle statistics per target that
// produced a snapshot.
func printStats(now time.Time, stats []mantra.CycleStats) {
	for _, st := range stats {
		fmt.Printf("%s %-10s sessions=%-5d participants=%-5d active=%-4d senders=%-4d bw=%.0fkbps routes=%d churn=%d\n",
			now.Format("15:04:05"), st.Target, st.Sessions, st.Participants,
			st.ActiveSessions, st.Senders, st.BandwidthKbps, st.Routes, st.RouteChurn)
	}
}

// anomalyLog logs anomaly episodes as episodes, not events: each once
// when it opens and once when it resolves, rather than re-logging every
// open episode every cycle.
type anomalyLog struct {
	lastID   int
	resolved map[int]bool
}

func newAnomalyLog() *anomalyLog { return &anomalyLog{lastID: -1, resolved: make(map[int]bool)} }

func (l *anomalyLog) log(anoms []mantra.Anomaly) {
	for _, a := range anoms {
		if a.ID > l.lastID {
			l.lastID = a.ID
			log.Printf("mantra: ANOMALY #%d %s %s at %s: %s", a.ID, a.Severity, a.Kind, a.Target, a.Detail)
		}
		if a.Resolved && !l.resolved[a.ID] {
			l.resolved[a.ID] = true
			log.Printf("mantra: RESOLVED #%d %s at %s after %s", a.ID, a.Kind, a.Target, a.ResolvedAt.Sub(a.At))
		}
	}
}

// allBreakerOpen reports whether every target's breaker is open with at
// least minFailures consecutive failures — the "nothing left to monitor"
// condition under -max-consecutive-failures.
func allBreakerOpen(health []mantra.TargetHealth, minFailures int) bool {
	if len(health) == 0 {
		return false
	}
	for _, h := range health {
		if h.Breaker != collect.BreakerOpen || h.ConsecutiveFailures < minFailures {
			return false
		}
	}
	return true
}
