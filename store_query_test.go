package mantra_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	mantra "repro"
	"repro/internal/core/output"
	"repro/internal/core/shard"
	"repro/internal/experiments"
)

// figureBytes renders a figure's CSV and ASCII chart into one buffer.
func figureBytes(t *testing.T, fig experiments.FigureResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := fig.RenderASCII(&buf, 110, 16); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFiguresStreamingEquivalence is the seed-equivalence proof for the
// figure pipeline's move onto the compressed store: every usage figure
// rendered from streamed store queries is byte-identical to the same
// figure built from the monitor's live in-memory rings — and stays
// identical after the hot rings are bounded, which a ring read cannot
// survive.
func TestFiguresStreamingEquivalence(t *testing.T) {
	r, err := experiments.NewRunner(experiments.UsageConfig(experiments.Quick))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(nil); err != nil {
		t.Fatal(err)
	}
	type src struct {
		target string
		metric mantra.Metric
	}
	// Each figure's panels, in order, as the ring read resolves them.
	figs := map[string]struct {
		fig    func() experiments.FigureResult
		panels []src
	}{
		"fig3": {r.Figure3, []src{{"fixw", mantra.MetricSessions}, {"fixw", mantra.MetricParticipants},
			{"fixw", mantra.MetricActiveSessions}, {"fixw", mantra.MetricSenders}}},
		"fig4": {r.Figure4, []src{{"fixw", mantra.MetricAvgDensity}, {"fixw", mantra.MetricSessions},
			{"fixw", mantra.MetricParticipants}}},
		"fig5": {r.Figure5, []src{{"fixw", mantra.MetricBandwidthKbps}, {"fixw", mantra.MetricSavedFactor}}},
		"fig6": {r.Figure6, []src{{"fixw", mantra.MetricActiveRatio}, {"fixw", mantra.MetricSenderRatio}}},
		"fig7": {r.Figure7, []src{{"ucsb-r1", mantra.MetricRoutes}, {"fixw", mantra.MetricRoutes}}},
	}
	streamed := map[string][]byte{}
	for id, f := range figs {
		fig := f.fig()
		streamed[id] = figureBytes(t, fig)
		if len(fig.Panels) != len(f.panels) {
			t.Fatalf("%s: %d panels, reference lists %d", id, len(fig.Panels), len(f.panels))
		}
		ring := fig
		ring.Panels = make([]experiments.Panel, len(fig.Panels))
		for i, p := range fig.Panels {
			ring.Panels[i] = experiments.Panel{Name: p.Name, Series: r.Mon.Series(f.panels[i].target, f.panels[i].metric)}
		}
		if posthoc := figureBytes(t, ring); !bytes.Equal(streamed[id], posthoc) {
			t.Errorf("%s: streamed render differs from the ring read", id)
		}
	}

	// Bound the hot rings to near the detection floor: the rings shrink,
	// the streamed figures must not move a byte.
	r.Mon.SetSeriesRetain(10)
	for id, f := range figs {
		if got := figureBytes(t, f.fig()); !bytes.Equal(streamed[id], got) {
			t.Errorf("%s: streamed render changed after bounding the hot rings", id)
		}
	}
}

// TestQueryEndpointShardInvariance pins the /query contract at the HTTP
// layer: the same scripted incident timeline served at 1, 4 and 16
// shards answers every query shape with byte-identical JSON. The split
// per-shard execution plus Assemble must be indistinguishable from one
// store holding everything.
func TestQueryEndpointShardInvariance(t *testing.T) {
	queries := []string{
		"/query?metric=routes&op=range",
		"/query?metric=routes&op=range&tier=10",
		"/query?metric=sessions&op=avg",
		"/query?metric=sessions&op=rate&target=fixw",
		"/query?metric=routes&op=topk&k=2&by=max",
		"/query?metric=participants&op=count",
		"/series/fixw/routes?limit=5",
	}
	run := func(shards int) map[string][]byte {
		n, s := shardIncidentFleet(t, func(c *shard.Config) { c.Shards = shards })
		for i := 0; i < 12; i++ {
			n.Step()
			if _, err := s.RunCycle(n.Now()); err != nil {
				t.Fatal(err)
			}
		}
		srv := output.NewServer(s.FleetProc())
		srv.SetSeries(s.SeriesView)
		srv.SetQuery(s.QueryFleet)
		hs := httptest.NewServer(srv)
		defer hs.Close()
		out := map[string][]byte{}
		for _, q := range queries {
			resp, err := hs.Client().Get(hs.URL + q)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != 200 {
				t.Fatalf("%d shards: GET %s: %s: %s", shards, q, resp.Status, body)
			}
			out[q] = body
		}
		return out
	}

	base := run(1)
	for _, q := range queries {
		if len(base[q]) == 0 {
			t.Fatalf("1 shard: empty response for %s", q)
		}
	}
	for _, shards := range []int{4, 16} {
		got := run(shards)
		for _, q := range queries {
			if !bytes.Equal(base[q], got[q]) {
				t.Errorf("%d shards: %s diverged from 1 shard:\n1:  %s\n%d: %s",
					shards, q, base[q], shards, got[q])
			}
		}
	}
}

// storeQueries captures the store answers an operator would compare
// across a crash.
func storeQueries(t *testing.T, m *mantra.Monitor) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, q := range []mantra.Query{
		{Metric: "routes", Op: "range"},
		{Metric: "routes", Op: "range", Tier: 10},
		{Metric: "sessions", Op: "avg"},
		{Metric: "sessions", Op: "topk", K: 1, By: "max"},
		{Metric: "participants", Op: "rate", Targets: []string{"fixw"}},
	} {
		res, err := m.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out[string(q.Metric)+"/"+string(q.Op)] = b
	}
	return out
}

// TestArchiveStoreCrashRecovery extends the crash test to the series
// store: after a crash with a corrupted disk mirror, the recovered
// monitor answers every query byte-identically to the pre-crash
// monitor, and the mirror self-heals.
func TestArchiveStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	n, m1 := newMonitoredNetwork(t)
	if _, err := m1.EnableArchive(mantra.ArchiveConfig{Dir: dir, CheckpointEvery: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		n.Step()
		if _, err := m1.RunCycle(n.Now()); err != nil {
			t.Fatal(err)
		}
	}
	want := storeQueries(t, m1)
	// Crash: no CloseArchive. Corrupt the block mirror's tail — the torn
	// write the next process must repair.
	segs, err := filepath.Glob(filepath.Join(dir, "tsdb", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 5 {
			if err := os.Truncate(seg, fi.Size()-5); err != nil {
				t.Fatal(err)
			}
		}
	}

	m2 := mantra.New()
	rewire(m2, n, "fixw", "ucsb-r1")
	if _, err := m2.EnableArchive(mantra.ArchiveConfig{Dir: dir, CheckpointEvery: 3, Resume: true}); err != nil {
		t.Fatal(err)
	}
	if st := m2.ArchiveStatus(); st.MirrorError != "" {
		t.Fatalf("mirror error after recovery: %s", st.MirrorError)
	}
	got := storeQueries(t, m2)
	for name, w := range want {
		if !bytes.Equal(w, got[name]) {
			t.Errorf("query %s diverged across crash:\npre:  %s\npost: %s", name, w, got[name])
		}
	}

	// The recovered monitor keeps collecting and the store keeps growing.
	n.Step()
	if _, err := m2.RunCycle(n.Now()); err != nil {
		t.Fatal(err)
	}
	res, err := m2.Query(mantra.Query{Metric: "routes", Op: "count", Targets: []string{"fixw"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Targets[0].Agg == nil || res.Targets[0].Agg.Count != 8 {
		t.Fatalf("post-resume count = %+v, want 8", res.Targets[0].Agg)
	}
	if err := m2.CloseArchive(n.Now()); err != nil {
		t.Fatal(err)
	}
}
