package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture module is loaded once: stdlib source type-checking dominates
// the cost and every fixture shares it through the module's file set.
var (
	modOnce sync.Once
	mod     *Module
	modErr  error
)

func fixtureModule(t *testing.T) *Module {
	t.Helper()
	modOnce.Do(func() { mod, modErr = NewModule(".") })
	if modErr != nil {
		t.Fatal(modErr)
	}
	return mod
}

// loadFixture type-checks testdata/<fixture> as if it were the module
// package at rel, so package-scoped analyzers see the path they key on.
func loadFixture(t *testing.T, fixture, rel string) *Package {
	t.Helper()
	p, err := fixtureModule(t).LoadDirAs(filepath.Join("testdata", fixture), rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.TypeErrors) > 0 {
		t.Fatalf("fixture %s does not type-check: %v", fixture, p.TypeErrors)
	}
	return p
}

// want is one expected finding: a regexp that must match some finding
// rendered as "[check] message" on the annotated line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantChunkRe = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// collectWants parses `// want "re"` / `// want ` + "`re`" annotations
// (several per comment allowed) from the fixture's comments.
func collectWants(t *testing.T, p *Package) []want {
	t.Helper()
	var out []want
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				_, rest, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				chunks := wantChunkRe.FindAllStringSubmatch(rest, -1)
				if len(chunks) == 0 {
					t.Fatalf("%s:%d: want annotation with no quoted pattern", pos.Filename, pos.Line)
				}
				for _, ch := range chunks {
					expr := ch[1]
					if expr == "" {
						expr = ch[2]
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, expr, err)
					}
					out = append(out, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// checkFixture runs every analyzer over the fixture and matches findings
// against its want annotations: every finding must be wanted, every want
// must be found.
func checkFixture(t *testing.T, fixture, rel string) {
	t.Helper()
	p := loadFixture(t, fixture, rel)
	findings := RunAnalyzers([]*Package{p}, Analyzers())
	wants := collectWants(t, p)

	matched := make([]bool, len(wants))
	for _, f := range findings {
		rendered := fmt.Sprintf("[%s] %s", f.Check, f.Message)
		hit := false
		for i, w := range wants {
			if w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(rendered) {
				matched[i] = true
				hit = true
			}
		}
		if !hit {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: wanted finding matching %q not reported", w.file, w.line, w.re)
		}
	}
}

func TestMapIterFixture(t *testing.T)   { checkFixture(t, "mapiter", "internal/core/logger") }
func TestWallClockFixture(t *testing.T) { checkFixture(t, "wallclock", "internal/core/engine") }
func TestGlobalRandFixture(t *testing.T) {
	checkFixture(t, "globalrand", "internal/netsim")
}
func TestWalErrFixture(t *testing.T) { checkFixture(t, "walerr", "internal/core/logger") }
func TestWalErrShardFixture(t *testing.T) {
	checkFixture(t, "walerrshard", "internal/core/shard")
}
func TestFloatSumFixture(t *testing.T) { checkFixture(t, "floatsum", "internal/netsim") }
func TestLockHeldFixture(t *testing.T) { checkFixture(t, "lockheld", "internal/core/engine") }
func TestSharedMutFixture(t *testing.T) {
	checkFixture(t, "sharedmut", "internal/core/engine")
}
func TestGoLeakFixture(t *testing.T)   { checkFixture(t, "goleak", "internal/netsim") }
func TestWalTaintFixture(t *testing.T) { checkFixture(t, "waltaint", "internal/core/logger") }
func TestHotAllocFixture(t *testing.T) { checkFixture(t, "hotalloc", "internal/netsim") }
func TestLockOrderFixture(t *testing.T) {
	checkFixture(t, "lockorder", "internal/netsim")
}

// TestAllowStaleFixture: an allow whose line no longer violates the
// named check is itself reported, and the report is itself allowable.
func TestAllowStaleFixture(t *testing.T) {
	checkFixture(t, "allowstale", "internal/netsim")
}

// TestLockScopeSilent loads the lock-boundary fixtures as a package
// outside the engine/WAL boundary set; lockheld, sharedmut and waltaint
// must all stay silent there.
func TestLockScopeSilent(t *testing.T) {
	for _, fixture := range []string{"lockheld", "sharedmut", "waltaint"} {
		p := loadFixture(t, fixture, "internal/netsim")
		if fs := RunAnalyzers([]*Package{p}, Analyzers()); len(fs) != 0 {
			t.Errorf("%s outside its boundary packages produced findings: %v", fixture, fs)
		}
	}
}

// TestMapIterScoping loads the violating shape as a package outside the
// determinism-critical set; mapiter must stay silent there.
func TestMapIterScoping(t *testing.T) {
	p := loadFixture(t, "mapiterscope", "internal/netsim")
	if fs := RunAnalyzers([]*Package{p}, Analyzers()); len(fs) != 0 {
		t.Fatalf("non-critical package produced findings: %v", fs)
	}
}

// TestMapIterScopeApplies is the control for TestMapIterScoping: the same
// fixture loaded as a determinism-critical path must be flagged.
func TestMapIterScopeApplies(t *testing.T) {
	p := loadFixture(t, "mapiterscope", "internal/core/tables")
	fs := RunAnalyzers([]*Package{p}, Analyzers())
	if len(fs) != 1 || fs[0].Check != "mapiter" {
		t.Fatalf("findings = %v, want exactly one mapiter", fs)
	}
}

// TestSuppressionPrecision proves an allow silences exactly the named
// check on exactly its line — the want annotations in the fixture mark
// what must survive.
func TestSuppressionPrecision(t *testing.T) {
	checkFixture(t, "suppressprecision", "internal/netsim")
}

// TestPR3RegressionShapes keeps the two bug shapes PR 3 fixed permanently
// detectable: the delta-log removal-set append and the stability float
// accumulation.
func TestPR3RegressionShapes(t *testing.T) {
	checkFixture(t, "pr3regress", "internal/core/logger")
	p := loadFixture(t, "pr3regress", "internal/core/logger")
	byCheck := make(map[string]int)
	for _, f := range RunAnalyzers([]*Package{p}, Analyzers()) {
		byCheck[f.Check]++
	}
	if byCheck["mapiter"] == 0 || byCheck["floatsum"] == 0 {
		t.Fatalf("PR 3 bug shapes no longer detected: %v", byCheck)
	}
}

// TestAllowDefects asserts the three defective-allow cases directly (a
// want annotation appended to an allow comment would become its reason,
// so this fixture cannot self-annotate).
func TestAllowDefects(t *testing.T) {
	p := loadFixture(t, "allowdefects", "internal/netsim")
	findings := RunAnalyzers([]*Package{p}, Analyzers())
	var allowMsgs []string
	wallclock := 0
	for _, f := range findings {
		switch f.Check {
		case "allow":
			allowMsgs = append(allowMsgs, f.Message)
		case "wallclock":
			wallclock++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if len(allowMsgs) != 3 {
		t.Fatalf("allow defects = %v, want 3", allowMsgs)
	}
	for i, wantSub := range []string{
		`unknown check "mapitre"`,
		`for "wallclock" has no reason`,
		"names no check",
	} {
		if !strings.Contains(allowMsgs[i], wantSub) {
			t.Errorf("allow defect %d = %q, want substring %q", i, allowMsgs[i], wantSub)
		}
	}
	// None of the defective allows suppressed anything: all three
	// wall-clock reads still report.
	if wallclock != 3 {
		t.Errorf("wallclock findings = %d, want 3 (defective allows must not suppress)", wallclock)
	}
}

// TestEngineRegressShapes keeps the pipelined engine's two concurrency
// bug shapes permanently detectable against a miniature engine:
// mutation-after-publish (sharedmut) and lock-across-send (lockheld).
// The fixture is loaded as internal/core/engine, so re-introducing
// either shape in the real engine fails `make lint` identically.
func TestEngineRegressShapes(t *testing.T) {
	checkFixture(t, "engineregress", "internal/core/engine")
	p := loadFixture(t, "engineregress", "internal/core/engine")
	byCheck := make(map[string]int)
	for _, f := range RunAnalyzers([]*Package{p}, Analyzers()) {
		byCheck[f.Check]++
	}
	if byCheck["sharedmut"] < 2 || byCheck["lockheld"] < 1 {
		t.Fatalf("engine bug shapes no longer detected: %v", byCheck)
	}
}

// TestLockOrderRegress pins the PR 6 session-write wedge: an AB/BA
// inversion between the session and write-queue mutexes, living in
// internal/core/collect — outside lockheld's scoped package set, which
// is exactly why lockorder runs module-wide. Both legs must report.
func TestLockOrderRegress(t *testing.T) {
	checkFixture(t, "lockorderregress", "internal/core/collect")
	p := loadFixture(t, "lockorderregress", "internal/core/collect")
	lockorder := 0
	for _, f := range RunAnalyzers([]*Package{p}, Analyzers()) {
		if f.Check == "lockorder" {
			lockorder++
		}
	}
	if lockorder < 2 {
		t.Fatalf("lockorder findings = %d, want both legs of the PR 6 wedge", lockorder)
	}
}

// TestHotpathDefects asserts the marker-defect cases directly (a want
// annotation appended to a marker comment would parse as the marker's
// argument, so that fixture cannot self-annotate).
func TestHotpathDefects(t *testing.T) {
	p := loadFixture(t, "hotpathdefects", "internal/netsim")
	var msgs []string
	for _, f := range RunAnalyzers([]*Package{p}, Analyzers()) {
		if f.Check != "hotpath" {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		msgs = append(msgs, f.Message)
	}
	if len(msgs) != 5 {
		t.Fatalf("hotpath defects = %d (%v), want 5", len(msgs), msgs)
	}
	for i, wantSub := range []string{
		"dangling //mantra:hotpath",
		`budget "zero" is not a non-negative integer`,
		"marker takes at most one argument",
		"duplicate //mantra:hotpath on dup",
		"dangling //mantra:hotpath",
	} {
		if !strings.Contains(msgs[i], wantSub) {
			t.Errorf("hotpath defect %d = %q, want substring %q", i, msgs[i], wantSub)
		}
	}
}

func TestByName(t *testing.T) {
	as, err := ByName([]string{"mapiter", "walerr"})
	if err != nil || len(as) != 2 || as[0].Name != "mapiter" || as[1].Name != "walerr" {
		t.Fatalf("ByName = %v, %v", as, err)
	}
	if _, err := ByName([]string{"nosuch"}); err == nil {
		t.Fatal("unknown check name accepted")
	}
	names := CheckNames()
	wantNames := []string{
		"codecsym", "floatsum", "globalrand", "goleak", "hotalloc",
		"hotpath", "lockheld", "lockorder", "mapiter", "sertaint",
		"sharedmut", "statecov", "walerr", "wallclock", "waltaint",
	}
	if strings.Join(names, ",") != strings.Join(wantNames, ",") {
		t.Fatalf("CheckNames = %v, want %v", names, wantNames)
	}
}

// TestModuleSelfClean is the enforced version of the self-clean pass:
// every package in the repository must lint clean, so `make lint` exiting
// zero is guaranteed by `go test` too.
func TestModuleSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := fixtureModule(t).LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Errorf("package %q has type errors: %v", p.RelPath, p.TypeErrors[0])
		}
	}
	for _, f := range RunAnalyzers(pkgs, Analyzers()) {
		t.Errorf("finding on clean tree: %s", f)
	}
}

// TestHotRootsPinned pins the //mantra:hotpath root set. The
// AllocsPerRun gates in hotpath_gate_test.go (repo root) exercise the
// dynamic side of the key roots; this list is the static side, so a
// marker silently added, moved or dropped shows up as a diff here and
// keeps the two views from drifting. Update both together.
func TestHotRootsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := fixtureModule(t).LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]*PkgSummary, 0, len(pkgs))
	for _, p := range pkgs {
		sums = append(sums, Summarize(p))
	}
	want := []string{
		"(*repro/internal/core/collect.Collector).Collect",
		"(*repro/internal/core/collect.Session).readUntil",
		"(*repro/internal/core/collect.Session).send",
		"(*repro/internal/core/engine.Core).stageCollect",
		"(*repro/internal/core/engine.Core).stageLog",
		"(*repro/internal/core/engine.Core).stageNormalize",
		"(*repro/internal/core/engine.Engine).Run",
		"(*repro/internal/core/engine.Engine).finishCycle",
		"(*repro/internal/core/logger.Logger).Append",
		"(*repro/internal/core/logger.Store).append",
		"(*repro/internal/core/logger.Store).openSegment",
		"(*repro/internal/core/logger.Store).rotate",
		"(*repro/internal/core/process.RouteStability).Observe",
		"(*repro/internal/core/shard.worker).commit",
		"(*repro/internal/core/tsdb.Store).Append",
		"(*repro/internal/core/tsdb.dirWriter).openSegment",
		"repro/internal/addr.Parse",
		"repro/internal/addr.ParsePrefix",
		"repro/internal/core/collect.CollectAll",
		"repro/internal/core/collect.Login",
		"repro/internal/core/collect.Preprocess",
		"repro/internal/core/collect.ValidateDump",
		"repro/internal/core/logger.encodePayload",
		"repro/internal/core/logger.segmentName",
		"repro/internal/core/tables.BuildSnapshot",
		"repro/internal/core/tables.ParseDVMRPRoutes",
		"repro/internal/core/tables.ParseIGMP",
		"repro/internal/core/tables.ParseMBGP",
		"repro/internal/core/tables.ParseMSDP",
		"repro/internal/core/tables.ParseMroute",
		"repro/internal/core/tables.parseUptime",
		"repro/internal/core/tsdb.segmentPath",
	}
	got := HotRoots(sums)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("hot-path root set drifted:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestCodecSymFixture(t *testing.T) { checkFixture(t, "codecsym", "internal/netsim") }

func TestStateCovFixture(t *testing.T) { checkFixture(t, "statecov", "internal/netsim") }

func TestSerTaintFixture(t *testing.T) { checkFixture(t, "sertaint", "internal/netsim") }

// TestCodecSymRegressShape keeps the codec-field-drift bug shape
// permanently detectable against a miniature WAL record codec.
func TestCodecSymRegressShape(t *testing.T) {
	checkFixture(t, "codecsymregress", "internal/core/logger")
	p := loadFixture(t, "codecsymregress", "internal/core/logger")
	n := 0
	for _, f := range RunAnalyzers([]*Package{p}, Analyzers()) {
		if f.Check == "codecsym" {
			n++
		}
	}
	if n == 0 {
		t.Fatal("codec drift shape no longer detected")
	}
}

// TestStateCovRegressShape keeps the dropped-from-handoff bug shape
// permanently detectable against a miniature shard core.
func TestStateCovRegressShape(t *testing.T) {
	checkFixture(t, "statecovregress", "internal/core/shard")
	p := loadFixture(t, "statecovregress", "internal/core/shard")
	n := 0
	for _, f := range RunAnalyzers([]*Package{p}, Analyzers()) {
		if f.Check == "statecov" {
			n++
		}
	}
	if n == 0 {
		t.Fatal("handoff-drop shape no longer detected")
	}
}

// TestSerTaintRegressShape keeps the map-order-into-checkpoint bug shape
// permanently detectable across two call hops.
func TestSerTaintRegressShape(t *testing.T) {
	checkFixture(t, "sertaintregress", "internal/core/logger")
	p := loadFixture(t, "sertaintregress", "internal/core/logger")
	n := 0
	for _, f := range RunAnalyzers([]*Package{p}, Analyzers()) {
		if f.Check == "sertaint" {
			n++
		}
	}
	if n == 0 {
		t.Fatal("map-order-into-checkpoint shape no longer detected")
	}
}

// TestMarkDefects asserts the v4 marker-defect reports directly (a want
// annotation appended to a marker comment would corrupt the marker's own
// argument parse, so this fixture cannot self-annotate).
func TestMarkDefects(t *testing.T) {
	p := loadFixture(t, "markdefects", "internal/netsim")
	findings := RunAnalyzers([]*Package{p}, Analyzers())
	var msgs []string
	for _, f := range findings {
		msgs = append(msgs, fmt.Sprintf("[%s] %s", f.Check, f.Message))
	}
	for _, wantSub := range []string{
		`[codecsym] dangling //mantra:codec`,
		`[codecsym] bad //mantra:codec on defectNoType: missing type=<struct>`,
		`[codecsym] bad //mantra:codec on defectBadRole: role must be encode or decode`,
		`[codecsym] bad //mantra:codec on defectDecodeShape: shape= belongs on the encode marker`,
		`[statecov] bad //mantra:statetransfer on defectRootAndComponent: `,
		`[statecov] bad //mantra:statetransfer on defectBadSeam: `,
		`[sertaint] bad //mantra:sink on defectBadSink: want exactly "serialization", got "compression"`,
		`[codecsym] bad //mantra:codec on type defectPinned: role= is for function markers; a type pin is role-less`,
	} {
		found := false
		for _, m := range msgs {
			if strings.Contains(m, wantSub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no defect containing %q in:\n%s", wantSub, strings.Join(msgs, "\n"))
		}
	}
}
