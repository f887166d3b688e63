package engine

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core/logger"
	"repro/internal/core/tables"
	"repro/internal/sim"
)

var errInjected = errors.New("injected append failure")

// failingWAL passes appends through to a real store, failing the calls
// whose 0-based index is in fail without writing them.
type failingWAL struct {
	st   *logger.Store
	fail map[int]bool
	call int
}

func (f *failingWAL) AppendDelta(target string, rec logger.CycleRecord, fullEntries uint64) error {
	defer func() { f.call++ }()
	if f.fail[f.call] {
		return errInjected
	}
	return f.st.AppendDelta(target, rec, fullEntries)
}

func (f *failingWAL) AppendGap(target string, at time.Time, reason string) error {
	defer func() { f.call++ }()
	if f.fail[f.call] {
		return errInjected
	}
	return f.st.AppendGap(target, at, reason)
}

// TestPersistTriesEveryFrame: one failing append must not drop the
// other frames of the same cycle. The shard group commit once returned
// at the first failed append, so every later target's frame of that
// cycle never reached disk while the handoff tail still recorded it.
func TestPersistTriesEveryFrame(t *testing.T) {
	now := sim.Epoch
	lg := logger.New()
	var frames []CycleEntry
	for _, name := range []string{"t00", "t01", "t02", "t03"} {
		if name == "t02" {
			frames = append(frames, CycleEntry{Target: name, Gap: true, At: now, Reason: "refused"})
			continue
		}
		rec := lg.Append(&tables.Snapshot{Target: name, At: now})
		frames = append(frames, CycleEntry{Target: name, Rec: rec})
	}

	dir := t.TempDir()
	st, err := logger.OpenStore(dir, logger.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The first and third frames fail; the second and fourth must land.
	err = persist(&failingWAL{st: st, fail: map[int]bool{0: true, 2: true}}, frames)
	if !errors.Is(err, errInjected) {
		t.Fatalf("persist error = %v, want the injected failure", err)
	}
	if joined, ok := err.(interface{ Unwrap() []error }); !ok || len(joined.Unwrap()) != 2 {
		t.Errorf("persist error = %v, want both failures joined", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = logger.OpenStore(dir, logger.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got []string
	for _, ev := range st.Recover().Events {
		got = append(got, ev.Target)
	}
	if want := []string{"t01", "t03"}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("durable frames = %v, want %v", got, want)
	}
}

// TestCoreQueuesInRegistrationOrder: the Log stage queues one frame per
// target in registration order, gaps in place, and the aggregate last.
func TestCoreQueuesInRegistrationOrder(t *testing.T) {
	c := NewCore(nil, nil, nil)
	c.Engine.stages.Collect = func(it *Item, now time.Time) {
		okCollect(it, now)
		if it.Seq == 1 {
			it.Res.Err = errors.New("refused")
		}
	}
	c.Engine.stages.Normalize = okNormalize
	c.Merge = func(now time.Time, snaps []*tables.Snapshot) *tables.Snapshot {
		return &tables.Snapshot{Target: "agg", At: now}
	}
	c.Run(sim.Epoch, fakeTargets(3), Options{Concurrency: 3, Aggregate: true})
	var got []string
	for _, e := range c.Pending() {
		name := e.Target
		if e.Gap {
			name += "(gap)"
		}
		got = append(got, name)
	}
	want := []string{"t00", "t01(gap)", "t02", "agg"}
	if len(got) != len(want) {
		t.Fatalf("pending = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pending = %v, want %v", got, want)
		}
	}
}
