package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core/output"
	"repro/internal/core/process"
)

// Panel is one sub-plot of a figure.
type Panel struct {
	Name   string
	Series *process.Series
}

// FigureResult is a regenerated paper artifact.
type FigureResult struct {
	ID     string
	Title  string
	Panels []Panel
	Notes  []string
}

// panel streams a figure's input series out of the compressed store — a
// materialized range query, what the /query endpoint serves — so it
// covers the whole run even with bounded hot rings (-series-retain).
func (r *Runner) panel(target string, m process.Metric, name string) Panel {
	return Panel{Name: name, Series: r.Mon.MaterializedSeries(target, m)}
}

// Figure3 regenerates the four usage-count panels at FIXW.
func (r *Runner) Figure3() FigureResult {
	return FigureResult{
		ID:    "fig3",
		Title: "Session and Participant Statistics (Total Counts) at FIXW",
		Panels: []Panel{
			r.panel("fixw", process.MetricSessions, "sessions"),
			r.panel("fixw", process.MetricParticipants, "participants"),
			r.panel("fixw", process.MetricActiveSessions, "active-sessions"),
			r.panel("fixw", process.MetricSenders, "senders"),
		},
	}
}

// Figure4 regenerates the average session density plot.
func (r *Runner) Figure4() FigureResult {
	return FigureResult{
		ID:    "fig4",
		Title: "Session Densities at FIXW",
		Panels: []Panel{
			r.panel("fixw", process.MetricAvgDensity, "avg-density"),
			r.panel("fixw", process.MetricSessions, "sessions"),
			r.panel("fixw", process.MetricParticipants, "participants"),
		},
	}
}

// Figure5 regenerates the bandwidth plots.
func (r *Runner) Figure5() FigureResult {
	return FigureResult{
		ID:    "fig5",
		Title: "Bandwidth Usage at FIXW",
		Panels: []Panel{
			r.panel("fixw", process.MetricBandwidthKbps, "multicast-kbps"),
			r.panel("fixw", process.MetricSavedFactor, "saved-factor"),
		},
	}
}

// Figure6 regenerates the percentage-active plots.
func (r *Runner) Figure6() FigureResult {
	return FigureResult{
		ID:    "fig6",
		Title: "Percentage Active at FIXW",
		Panels: []Panel{
			r.panel("fixw", process.MetricActiveRatio, "sessions-active-ratio"),
			r.panel("fixw", process.MetricSenderRatio, "participants-sender-ratio"),
		},
	}
}

// Figure7 regenerates the DVMRP route-count plots at both vantages.
func (r *Runner) Figure7() FigureResult {
	return FigureResult{
		ID:    "fig7",
		Title: "DVMRP-Routes Statistics: UCSB (mrouted) and FIXW",
		Panels: []Panel{
			r.panel("ucsb-r1", process.MetricRoutes, "ucsb-routes"),
			r.panel("fixw", process.MetricRoutes, "fixw-routes"),
		},
	}
}

// Figure8 regenerates the long-term DVMRP decline at FIXW.
func (r *Runner) Figure8() FigureResult {
	return FigureResult{
		ID:    "fig8",
		Title: "DVMRP at FIXW: Long Term Results",
		Panels: []Panel{
			r.panel("fixw", process.MetricRoutes, "fixw-routes"),
		},
	}
}

// Figure9 regenerates the route-injection day at the UCSB router and
// reports the detector's verdicts.
func (r *Runner) Figure9() FigureResult {
	fr := FigureResult{
		ID:    "fig9",
		Title: "Unicast route injection into mrouted routes-table (UCSB)",
		Panels: []Panel{
			r.panel("ucsb-r1", process.MetricRoutes, "ucsb-routes"),
		},
	}
	for _, a := range r.Mon.Anomalies() {
		fr.Notes = append(fr.Notes, fmt.Sprintf("%s at %s: %s (%s)",
			a.Kind, a.At.UTC().Format("2006-01-02 15:04"), a.Target, a.Detail))
	}
	return fr
}

// WriteCSV emits the figure's series as aligned CSV: time, then one
// column per panel (empty where a panel lacks a point at that time).
func (fr FigureResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "time"); err != nil {
		return err
	}
	for _, p := range fr.Panels {
		fmt.Fprintf(w, ",%s", p.Name)
	}
	fmt.Fprintln(w)
	// Union of timestamps, assuming panels share the sampling grid.
	var base *process.Series
	for _, p := range fr.Panels {
		if p.Series != nil && (base == nil || p.Series.Len() > base.Len()) {
			base = p.Series
		}
	}
	if base == nil {
		return nil
	}
	for i, t := range base.Times {
		fmt.Fprintf(w, "%s", t.UTC().Format(time.RFC3339))
		for _, p := range fr.Panels {
			if p.Series != nil && i < p.Series.Len() && p.Series.Times[i].Equal(t) {
				fmt.Fprintf(w, ",%g", p.Series.Values[i])
			} else {
				fmt.Fprintf(w, ",")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RenderASCII draws every panel as an ASCII chart.
func (fr FigureResult) RenderASCII(w io.Writer, width, height int) error {
	fmt.Fprintf(w, "== %s: %s ==\n", fr.ID, fr.Title)
	for _, p := range fr.Panels {
		if p.Series == nil {
			fmt.Fprintf(w, "%s: no data\n", p.Name)
			continue
		}
		g := output.NewGraph(p.Name, p.Name)
		g.Overlay(p.Name, p.Series)
		if err := g.RenderASCII(w, width, height); err != nil {
			return err
		}
	}
	for _, n := range fr.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	return nil
}

// ShapeCheck is one paper-vs-measured comparison.
type ShapeCheck struct {
	Name string
	Want string
	Got  string
	Pass bool
}

// ShapeReport collects the comparisons for EXPERIMENTS.md and tests.
type ShapeReport struct {
	Checks []ShapeCheck
}

// Pass reports whether every check passed.
func (s ShapeReport) Pass() bool {
	for _, c := range s.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// String renders the report.
func (s ShapeReport) String() string {
	out := ""
	for _, c := range s.Checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		out += fmt.Sprintf("[%s] %-38s want %-28s got %s\n", mark, c.Name, c.Want, c.Got)
	}
	return out
}

func (s *ShapeReport) add(name, want, got string, pass bool) {
	s.Checks = append(s.Checks, ShapeCheck{Name: name, Want: want, Got: got, Pass: pass})
}

// variance of the series values.
func varianceOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	m := 0.0
	for _, v := range vals {
		m += v
	}
	m /= float64(len(vals))
	s := 0.0
	for _, v := range vals {
		s += (v - m) * (v - m)
	}
	return s / float64(len(vals))
}

// UsageShape evaluates the paper's §IV-B qualitative findings on a
// completed usage run (Figures 3–6).
func (r *Runner) UsageShape() ShapeReport {
	var rep ShapeReport
	// Compare the settled regimes: before the transition began versus
	// after it completed (the migration period itself carries the
	// declining trend and belongs to neither).
	mid := r.Cfg.TransitionStart
	if mid.IsZero() {
		mid = r.Cfg.Start.Add(r.Cfg.End.Sub(r.Cfg.Start) / 2)
	}
	done := r.Cfg.TransitionEnd
	if done.IsZero() {
		done = mid
	}
	settled := func(s *process.Series) (before, after float64) {
		var bs, as float64
		var bn, an int
		for i, tm := range s.Times {
			switch {
			case tm.Before(mid):
				bs += s.Values[i]
				bn++
			case !tm.Before(done):
				as += s.Values[i]
				an++
			}
		}
		if bn > 0 {
			before = bs / float64(bn)
		}
		if an > 0 {
			after = as / float64(an)
		}
		return before, after
	}

	part := r.Mon.MaterializedSeries("fixw", process.MetricParticipants)
	pb, pa := settled(part)
	rep.add("participants drop after transition",
		"post-transition mean well below pre", fmt.Sprintf("%.0f -> %.0f", pb, pa),
		pa < pb*0.8)

	snd := r.Mon.MaterializedSeries("fixw", process.MetricSenders)
	sb, sa := settled(snd)
	rep.add("senders remain comparable",
		"post within 2x band of pre", fmt.Sprintf("%.1f -> %.1f", sb, sa),
		sa > sb*0.5 && sa < sb*2.0)

	ratio := r.Mon.MaterializedSeries("fixw", process.MetricSenderRatio)
	rb, ra := settled(ratio)
	rep.add("sender/participant ratio rises",
		"ratio increases after transition", fmt.Sprintf("%.3f -> %.3f", rb, ra),
		ra > rb*1.1)

	// Session availability stabilizes: sparse mode filters the bursty
	// single-member sessions out of FIXW's view, so the session count's
	// relative dispersion (coefficient of variation) shrinks.
	sess := r.Mon.MaterializedSeries("fixw", process.MetricSessions)
	var pre, post []float64
	for i, tm := range sess.Times {
		switch {
		case tm.Before(mid):
			pre = append(pre, sess.Values[i])
		case !tm.Before(done):
			post = append(post, sess.Values[i])
		}
	}
	cv := func(vals []float64) float64 {
		if len(vals) == 0 {
			return 0
		}
		m := 0.0
		for _, v := range vals {
			m += v
		}
		m /= float64(len(vals))
		if m == 0 {
			return 0
		}
		return math.Sqrt(varianceOf(vals)) / m
	}
	cb, ca := cv(pre), cv(post)
	rep.add("session availability stabilizes",
		"session-count CV shrinks", fmt.Sprintf("cv %.2f -> %.2f", cb, ca),
		ca < cb)

	bw := r.Mon.MaterializedSeries("fixw", process.MetricBandwidthKbps)
	mean, median, stddev, _, _ := bw.Stats()
	rep.add("bandwidth magnitude (Fig 5 left)",
		"mean ~4000 kbps, high dispersion",
		fmt.Sprintf("mean %.0f median %.0f sd %.0f", mean, median, stddev),
		mean > 1500 && mean < 12000 && stddev > mean/4)

	saved := r.Mon.MaterializedSeries("fixw", process.MetricSavedFactor)
	sm, _, _, _, _ := saved.Stats()
	rep.add("bandwidth saved (Fig 5 right)",
		"unicast equivalent a multiple >1 of multicast",
		fmt.Sprintf("mean saved factor %.1fx", sm),
		sm > 1.5)

	dens := r.Mon.MaterializedSeries("fixw", process.MetricAvgDensity)
	dcorr := spikeAnticorrelation(r.Mon.MaterializedSeries("fixw", process.MetricSessions), dens)
	rep.add("session spikes dip density (Fig 4)",
		"session-count spikes coincide with density dips",
		fmt.Sprintf("spike/dip agreement %.0f%%", dcorr*100),
		dcorr > 0.6)

	return rep
}

// spikeAnticorrelation finds large jumps in a and reports the fraction
// where b moved the other way.
func spikeAnticorrelation(a, b *process.Series) float64 {
	if a == nil || b == nil || a.Len() != b.Len() || a.Len() < 3 {
		return 0
	}
	_, _, sd, _, _ := a.Stats()
	spikes, agree := 0, 0
	for i := 1; i < a.Len(); i++ {
		da := a.Values[i] - a.Values[i-1]
		if da > sd { // a spike up in sessions
			spikes++
			if b.Values[i] < b.Values[i-1] {
				agree++
			}
		}
	}
	if spikes == 0 {
		return 0
	}
	return float64(agree) / float64(spikes)
}

// RouteShape evaluates the Figure 7 findings on a completed run.
func (r *Runner) RouteShape() ShapeReport {
	var rep ShapeReport
	fixw := r.Mon.MaterializedSeries("fixw", process.MetricRoutes)
	ucsb := r.Mon.MaterializedSeries("ucsb-r1", process.MetricRoutes)

	_, _, sdF, minF, maxF := fixw.Stats()
	rep.add("route counts unstable (Fig 7)",
		"visible variation over time",
		fmt.Sprintf("fixw min %.0f max %.0f sd %.0f", minF, maxF, sdF),
		maxF > minF && sdF > 0)

	diverge := 0
	n := fixw.Len()
	if ucsb.Len() < n {
		n = ucsb.Len()
	}
	for i := 0; i < n; i++ {
		if fixw.Values[i] != ucsb.Values[i] {
			diverge++
		}
	}
	rep.add("views inconsistent across routers",
		"tables differ at a meaningful share of samples",
		fmt.Sprintf("%d/%d samples differ", diverge, n),
		n > 0 && float64(diverge) > 0.02*float64(n))

	churn := r.Mon.MaterializedSeries("fixw", process.MetricRouteChurn)
	cm, _, _, _, _ := churn.Stats()
	rep.add("routes churn continuously",
		"non-zero mean churn per cycle",
		fmt.Sprintf("mean churn %.1f prefixes/cycle", cm),
		cm > 0)
	return rep
}

// DeclineShape evaluates the Figure 8 finding: DVMRP route count at FIXW
// falls to near zero by the end of the long-term window.
func (r *Runner) DeclineShape() ShapeReport {
	var rep ShapeReport
	s := r.Mon.MaterializedSeries("fixw", process.MetricRoutes)
	if s == nil || s.Len() < 10 {
		rep.add("long-term decline", "data present", "series too short", false)
		return rep
	}
	peak := 0.0
	for _, v := range s.Values {
		if v > peak {
			peak = v
		}
	}
	tail := s.Values[len(s.Values)-1]
	rep.add("DVMRP declines to near zero (Fig 8)",
		"final count < 15% of peak",
		fmt.Sprintf("peak %.0f final %.0f", peak, tail),
		tail < peak*0.15)
	// Monotone-ish decline: last quarter mean below first quarter mean.
	q := s.Len() / 4
	first, last := 0.0, 0.0
	for i := 0; i < q; i++ {
		first += s.Values[i]
		last += s.Values[s.Len()-1-i]
	}
	rep.add("decline direction",
		"late mean far below early mean",
		fmt.Sprintf("%.0f -> %.0f", first/float64(q), last/float64(q)),
		last < first*0.5)
	return rep
}

// InjectionShape evaluates the Figure 9 finding on a completed injection
// run: a sharp step at the injection time, flagged by the detector.
func (r *Runner) InjectionShape() ShapeReport {
	var rep ShapeReport
	s := r.Mon.MaterializedSeries("ucsb-r1", process.MetricRoutes)
	if s == nil || s.Len() == 0 {
		rep.add("injection visible", "data present", "no series", false)
		return rep
	}
	base, peak := math.Inf(1), 0.0
	for _, v := range s.Values {
		if v < base {
			base = v
		}
		if v > peak {
			peak = v
		}
	}
	rep.add("sharp spike visible (Fig 9)",
		"peak exceeds baseline by the injected amount",
		fmt.Sprintf("base %.0f peak %.0f (injected %d)", base, peak, r.Cfg.InjectCount),
		peak >= base+float64(r.Cfg.InjectCount)*3/4)

	detected := false
	var when time.Time
	for _, a := range r.Mon.Anomalies() {
		if a.Kind == "route-injection" && a.Target == "ucsb-r1" {
			detected = true
			when = a.At
		}
	}
	got := "not detected"
	pass := false
	if detected {
		diff := when.Sub(r.Cfg.InjectAt)
		if diff < 0 {
			diff = -diff
		}
		got = fmt.Sprintf("detected at %s", when.UTC().Format("15:04"))
		pass = diff <= 2*r.Cfg.Cycle
	}
	rep.add("detector flags the incident",
		fmt.Sprintf("anomaly within 2 cycles of %s", r.Cfg.InjectAt.UTC().Format("15:04")),
		got, pass)
	return rep
}
