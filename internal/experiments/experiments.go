// Package experiments reproduces the evaluation artifacts of the paper:
// every figure of §IV is regenerated by running the full pipeline — the
// simulated multicast internetwork on one side and Mantra's collector/
// parser/logger/processor on the other, joined only by the router CLI.
//
// Figures and the workloads behind them:
//
//	Fig 3  sessions / participants / active sessions / senders at FIXW
//	Fig 4  average session density (IETF-43 spike early December)
//	Fig 5  multicast bandwidth at FIXW and the bandwidth-saved factor
//	Fig 6  % sessions active and % participants that are senders
//	Fig 7  DVMRP route counts at the UCSB router and at FIXW
//	Fig 8  long-term DVMRP decline at FIXW
//	Fig 9  unicast route injection into the UCSB mrouted table
//
// Scales: Full is the paper's timeline (Oct 1998 – Apr 1999 at 30-minute
// cycles); Standard trims domains and uses hourly cycles for interactive
// regeneration; Quick is for tests and benchmarks.
package experiments

import (
	"fmt"
	"time"

	mantra "repro"
	"repro/internal/core/collect"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Scale selects the experiment size.
type Scale int

// Scales.
const (
	// Quick: tests and benchmarks — a handful of domains, short window.
	Quick Scale = iota
	// Standard: interactive regeneration — full shape, hourly cycles.
	Standard
	// Full: the paper's timeline at the paper's cycle granularity.
	Full
)

// Config describes one scenario run.
type Config struct {
	Scale Scale
	// Start and End bound the monitored window.
	Start, End time.Time
	// Cycle is the monitoring interval.
	Cycle time.Duration
	// Domains is the number of leaf domains besides UCSB.
	Domains int
	// TransitionStart/End bound the DVMRP→native migration window;
	// zero values disable the transition.
	TransitionStart, TransitionEnd time.Time
	// IETF is the large-event date (zero disables it).
	IETF time.Time
	// InjectAt triggers the Fig 9 unicast injection at UCSB (zero
	// disables); InjectCount prefixes leak for InjectFor.
	InjectAt    time.Time
	InjectCount int
	InjectFor   time.Duration
	// Seed offsets all random streams.
	Seed int64
}

// UsageConfig returns the configuration reproducing Figures 3–6: the
// Nov 1998 – Apr 1999 window with the IETF-43 event and the transition.
func UsageConfig(scale Scale) Config {
	cfg := Config{
		Scale:           scale,
		Start:           sim.Epoch, // 1998-10-01; usage figures start Nov 1
		End:             time.Date(1999, time.April, 30, 0, 0, 0, 0, time.UTC),
		Cycle:           30 * time.Minute,
		Domains:         24,
		TransitionStart: time.Date(1999, time.February, 1, 0, 0, 0, 0, time.UTC),
		TransitionEnd:   time.Date(1999, time.April, 15, 0, 0, 0, 0, time.UTC),
		IETF:            time.Date(1998, time.December, 7, 13, 0, 0, 0, time.UTC),
		Seed:            1998,
	}
	switch scale {
	case Standard:
		cfg.Cycle = time.Hour
		cfg.Domains = 16
	case Quick:
		cfg.Cycle = time.Hour
		cfg.Domains = 5
		cfg.End = sim.Epoch.AddDate(0, 0, 21)
		cfg.TransitionStart = sim.Epoch.AddDate(0, 0, 8)
		cfg.TransitionEnd = sim.Epoch.AddDate(0, 0, 14)
		cfg.IETF = sim.Epoch.AddDate(0, 0, 4)
	}
	return cfg
}

// RouteConfig returns the configuration reproducing Figure 7 (route
// counts at UCSB and FIXW over the usage window, no transition influence
// beyond the scheduled one).
func RouteConfig(scale Scale) Config {
	cfg := UsageConfig(scale)
	return cfg
}

// LongTermConfig returns the Figure 8 configuration: October 1998 through
// December 2000, every domain migrating off DVMRP by late 2000.
func LongTermConfig(scale Scale) Config {
	cfg := Config{
		Scale:           scale,
		Start:           sim.Epoch,
		End:             time.Date(2000, time.December, 31, 0, 0, 0, 0, time.UTC),
		Cycle:           6 * time.Hour,
		Domains:         24,
		TransitionStart: time.Date(1999, time.February, 1, 0, 0, 0, 0, time.UTC),
		TransitionEnd:   time.Date(2000, time.October, 1, 0, 0, 0, 0, time.UTC),
		Seed:            1998,
	}
	switch scale {
	case Standard:
		cfg.Domains = 16
	case Quick:
		cfg.Domains = 5
		cfg.End = sim.Epoch.AddDate(0, 2, 0)
		cfg.TransitionStart = sim.Epoch.AddDate(0, 0, 10)
		cfg.TransitionEnd = sim.Epoch.AddDate(0, 1, 10)
	}
	return cfg
}

// InjectionConfig returns the Figure 9 configuration: a single day at the
// UCSB router with five-minute cycles and a unicast leak at 14:00 on
// October 14 1998.
func InjectionConfig(scale Scale) Config {
	day := time.Date(1998, time.October, 14, 0, 0, 0, 0, time.UTC)
	cfg := Config{
		Scale:       scale,
		Start:       sim.Epoch,
		End:         day.Add(24 * time.Hour),
		Cycle:       5 * time.Minute,
		Domains:     12,
		InjectAt:    day.Add(14 * time.Hour),
		InjectCount: 900,
		InjectFor:   2 * time.Hour,
		Seed:        1998,
	}
	if scale == Quick {
		cfg.Domains = 4
		cfg.Cycle = 15 * time.Minute
		cfg.InjectCount = 400
	}
	return cfg
}

// Runner couples a simulated network with a Mantra monitor scraping its
// routers through the CLI.
type Runner struct {
	Cfg Config
	Net *netsim.Network
	Mon *mantra.Monitor
	// Stats accumulates the per-cycle results per target.
	Stats map[string][]mantra.CycleStats

	monitorFrom time.Time
}

// NewRunner builds the scenario: topology, workload, scheduled events,
// and a monitor targeting FIXW and the UCSB router.
func NewRunner(cfg Config) (*Runner, error) {
	tcfg := topo.DefaultInternetConfig()
	tcfg.NumDomains = cfg.Domains
	tcfg.Seed = cfg.Seed
	if cfg.Scale != Full {
		tcfg.MinSubnets = 40
		tcfg.MaxSubnets = 160
	}
	inet := topo.BuildInternet(tcfg)

	wcfg := workload.DefaultConfig()
	wcfg.Seed = cfg.Seed + 7
	wl := workload.New(wcfg, inet.Topo)

	ncfg := netsim.DefaultConfig()
	ncfg.Cycle = cfg.Cycle
	ncfg.Seed = cfg.Seed + 13
	net := netsim.New(inet, wl, ncfg)
	if err := net.Track("fixw", "ucsb-gw", "ucsb-r1"); err != nil {
		return nil, err
	}

	// Scheduled events.
	if !cfg.IETF.IsZero() {
		wl.At(cfg.IETF, func(g *workload.Generator, now time.Time) {
			// IETF-43 in Orlando: several channels, large audiences,
			// running for the meeting week.
			g.SpawnEvent(now, 4, 160, 5*24*time.Hour)
		})
	}
	if !cfg.TransitionStart.IsZero() && cfg.TransitionEnd.After(cfg.TransitionStart) {
		domains := inet.Topo.Domains()
		span := cfg.TransitionEnd.Sub(cfg.TransitionStart)
		idx := 0
		total := 0
		for _, d := range domains {
			if d.Name != "ucsb" {
				total++
			}
		}
		for _, d := range domains {
			if d.Name == "ucsb" {
				continue
			}
			at := cfg.TransitionStart.Add(time.Duration(int64(span) * int64(idx) / int64(total)))
			net.ScheduleTransition(d.Name, at)
			idx++
		}
	}
	if !cfg.InjectAt.IsZero() {
		if err := net.InjectUnicastRoutes("ucsb-gw", cfg.InjectCount, cfg.InjectAt, cfg.InjectFor); err != nil {
			return nil, err
		}
	}

	mon := mantra.New()
	for _, name := range []string{"fixw", "ucsb-r1"} {
		r := net.Router(name)
		r.Password = "mantra"
		mon.AddTarget(mantra.Target{
			Name:     name,
			Dialer:   collect.PipeDialer{Router: r},
			Password: "mantra",
			Prompt:   name + "> ",
			Timeout:  30 * time.Second,
		})
	}

	return &Runner{
		Cfg:         cfg,
		Net:         net,
		Mon:         mon,
		Stats:       make(map[string][]mantra.CycleStats),
		monitorFrom: cfg.Start,
	}, nil
}

// SetMonitorFrom delays monitoring until t (the paper's usage figures
// start November 1 although collection began in October).
func (r *Runner) SetMonitorFrom(t time.Time) { r.monitorFrom = t }

// Run executes the scenario to its end. progress, if non-nil, is invoked
// every cycle with the cycle index and current virtual time.
func (r *Runner) Run(progress func(cycle int, now time.Time)) error {
	i := 0
	for r.Net.Now().Before(r.Cfg.End) {
		r.Net.Step()
		if !r.Net.Now().Before(r.monitorFrom) {
			stats, err := r.Mon.RunCycle(r.Net.Now())
			if err != nil {
				return fmt.Errorf("experiments: cycle %d: %w", i, err)
			}
			for _, st := range stats {
				r.Stats[st.Target] = append(r.Stats[st.Target], st)
			}
		}
		if progress != nil {
			progress(i, r.Net.Now())
		}
		i++
	}
	return nil
}

// RunCycles executes exactly n cycles (for benchmarks).
func (r *Runner) RunCycles(n int) error {
	for i := 0; i < n; i++ {
		r.Net.Step()
		if _, err := r.Mon.RunCycle(r.Net.Now()); err != nil {
			return err
		}
	}
	return nil
}
