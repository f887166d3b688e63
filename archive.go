package mantra

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/logger"
	"repro/internal/core/process"
)

// ErrArchiveExists reports an EnableArchive call with Resume unset against
// a directory that already holds archive data — refusing is the safe
// default; an operator must opt into resuming (or point at a fresh
// directory) rather than silently shadowing months of collected history.
var ErrArchiveExists = errors.New("mantra: archive directory has data; set Resume to recover it")

// ArchiveConfig configures the durable archive behind a monitor.
type ArchiveConfig struct {
	// Dir is the archive directory (WAL segments plus checkpoints).
	Dir string
	// CheckpointEvery writes a full-state checkpoint after this many
	// cycles; 0 means 12 (six hours at the paper's 30-minute cadence).
	CheckpointEvery int
	// SegmentBytes, SyncEveryAppend, KeepCheckpoints pass through to the
	// store; see logger.StoreOptions.
	SegmentBytes    int64
	SyncEveryAppend bool
	KeepCheckpoints int
	// Resume recovers existing archive data into the monitor. Without it,
	// a directory that already has data is an error.
	Resume bool
}

// RecoveryReport summarizes what EnableArchive restored.
type RecoveryReport struct {
	// Resumed is false for a fresh (empty) archive.
	Resumed bool `json:"resumed"`
	// CheckpointAt is the instant of the checkpoint recovery started from
	// (zero when recovery replayed the WAL from its beginning).
	CheckpointAt time.Time `json:"checkpoint_at"`
	// CyclesReplayed and GapsReplayed count the WAL-tail events re-applied
	// on top of the checkpoint.
	CyclesReplayed int `json:"cycles_replayed"`
	GapsReplayed   int `json:"gaps_replayed"`
	// Targets is every target with restored history.
	Targets []string `json:"targets"`
	// Stats is the store's open-time scan outcome: torn-tail repair,
	// corrupt checkpoints skipped, records replayed.
	Stats logger.RecoveryStats `json:"stats"`
}

// ArchiveStatus is the operator view served at /archive.
type ArchiveStatus struct {
	Store logger.StoreStats `json:"store"`
	// Recovery is the startup report, nil when the archive started fresh.
	Recovery *RecoveryReport `json:"recovery,omitempty"`
	// LastAppendError is the most recent archive write failure; appends
	// never abort a cycle, they degrade to in-memory-only with this note.
	LastAppendError string `json:"last_append_error,omitempty"`
	// MirrorError is the most recent tsdb block-mirror write failure;
	// like WAL appends, mirror writes degrade rather than abort — the
	// in-memory store stays authoritative and the next attach reconciles.
	MirrorError string `json:"mirror_error,omitempty"`
}

// archiveExtra is the monitor-level state a checkpoint carries beyond the
// delta log itself, so recovery restores the processor series, stability
// trackers and health ledger without re-ingesting the whole history.
//
//mantra:codec pair=ckpt-archiveextra shape=3b61f622dc615f26
type archiveExtra struct {
	Proc      *process.State
	Stability map[string]*process.StabilityState
	Health    []collect.TargetHealth
}

// archiveState is the monitor's handle on its durable archive.
// The store itself is the pipeline core's, which group-commits every
// cycle's frames to it.
type archiveState struct {
	checkpointEvery int
	cyclesSince     int
	report          *RecoveryReport
	lastAppendErr   string
}

// EnableArchive attaches a durable archive to the monitor: every delta
// and gap marker the monitor logs is persisted to a checksummed
// write-ahead log under cfg.Dir, with periodic full-state checkpoints.
// With cfg.Resume set and existing data present, the monitor's logger,
// processor series, stability trackers, health ledger and latest
// snapshots are rebuilt to their pre-crash values before the call
// returns; at most the final partially-written record is lost, and the
// returned report says exactly what was repaired. Call before the first
// cycle.
func (m *Monitor) EnableArchive(cfg ArchiveConfig) (*RecoveryReport, error) {
	if m.archive != nil {
		return nil, errors.New("mantra: archive already enabled")
	}
	store, err := logger.OpenStore(cfg.Dir, logger.StoreOptions{
		SegmentBytes:    cfg.SegmentBytes,
		SyncEveryAppend: cfg.SyncEveryAppend,
		KeepCheckpoints: cfg.KeepCheckpoints,
	})
	if err != nil {
		return nil, err
	}
	every := cfg.CheckpointEvery
	if every <= 0 {
		every = 12
	}
	st := &archiveState{checkpointEvery: every}

	report := &RecoveryReport{}
	if store.HasData() {
		if !cfg.Resume {
			store.Close() //mantralint:allow walerr abandoning the store on a path already returning an error; nothing was written
			return nil, fmt.Errorf("%w: %s", ErrArchiveExists, cfg.Dir)
		}
		if err := m.recoverArchive(store, report); err != nil {
			store.Close() //mantralint:allow walerr abandoning the store on a path already returning an error; nothing was written
			return nil, err
		}
	}
	st.report = report
	m.archive = st
	m.core.Store = store
	// Attach the compressed-series block mirror after recovery has rebuilt
	// the in-memory store from checkpoint + WAL replay: AttachDir repairs
	// any torn mirror tail and reconciles sealed blocks the mirror is
	// missing, so a crash mid-mirror-write self-heals here. A mirror
	// attach failure degrades to in-memory-only, same as append errors.
	if err := m.core.Proc.Store().AttachDir(filepath.Join(cfg.Dir, "tsdb"), cfg.SyncEveryAppend); err != nil {
		st.lastAppendErr = err.Error()
	}
	m.server.SetArchive(func() any { return m.ArchiveStatus() })
	return report, nil
}

// recoverArchive rebuilds the monitor from a store's recovered state.
//
//mantra:statetransfer root=checkpoint-import
func (m *Monitor) recoverArchive(store *logger.Store, report *RecoveryReport) error {
	ra := store.Recover()
	report.Resumed = true
	report.CheckpointAt = ra.CheckpointAt
	report.Stats = ra.Stats

	m.core.Log = ra.Logger

	// recoveredAt approximates "now" for breaker cooldowns: the newest
	// instant the archive knows about, which keeps recovery correct under
	// simulated clocks where the wall clock is meaningless.
	recoveredAt := ra.CheckpointAt
	for _, ev := range ra.Events {
		if ev.At.After(recoveredAt) {
			recoveredAt = ev.At
		}
	}

	// Checkpointed monitor state: processor series, stability, health.
	if len(ra.Extra) > 0 {
		var extra archiveExtra
		if err := gob.NewDecoder(bytes.NewReader(ra.Extra)).Decode(&extra); err != nil {
			return fmt.Errorf("mantra: checkpoint monitor state: %w", err)
		}
		m.core.Proc.ImportState(extra.Proc)
		trackers := make(map[string]*process.RouteStability, len(extra.Stability))
		for target, ss := range extra.Stability {
			trackers[target] = process.StabilityFromState(ss)
		}
		m.core.Engine.ImportStability(trackers)
		for _, h := range extra.Health {
			m.core.Collector.RestoreHealth(h, recoveredAt)
		}
	}

	// Replay the WAL tail — the cycles between the checkpoint and the
	// crash — through the replay step shard handoff uses too. The WAL
	// holds no health, so the ledger is re-derived from the outcomes.
	for _, ev := range ra.Events {
		// The aggregate view is synthetic: the live path gives it no
		// stability tracker or health entry, so neither does replay.
		collected := ev.Target != AggregateTarget
		m.core.Engine.Replay(m.core.Proc, ev, collected)
		if ev.Gap {
			report.GapsReplayed++
			switch {
			case !collected:
			case strings.Contains(ev.Reason, collect.ErrBreakerOpen.Error()):
				// A breaker-open skip is not a fresh failure; replaying it
				// as one would inflate the failure counters past what the
				// monitor showed before the crash.
				m.core.Collector.RecordSkipped(ev.Target, ev.At)
			default:
				m.core.Collector.RecordFailure(ev.Target, ev.At, errors.New(ev.Reason))
			}
			continue
		}
		report.CyclesReplayed++
		m.core.Engine.SetLatest(ev.Target, ev.Snapshot)
		if collected {
			m.core.Collector.RecordSuccess(ev.Target, ev.At)
		}
	}

	// Targets fully covered by the checkpoint had no tail events; their
	// latest snapshots are materialized from the recovered delta log.
	for _, target := range m.core.Log.Targets() {
		report.Targets = append(report.Targets, target)
		if m.core.Engine.Latest(target) == nil {
			if sn, ok := m.core.Log.Materialized(target); ok {
				m.core.Engine.SetLatest(target, sn)
			}
		}
		if sn := m.core.Engine.Latest(target); sn != nil {
			m.refreshTables(target, sn)
		}
	}
	return nil
}

// archiveAfterCycle advances the auto-checkpoint counter.
func (m *Monitor) archiveAfterCycle(now time.Time) {
	if m.archive == nil {
		return
	}
	m.archive.cyclesSince++
	if m.archive.cyclesSince >= m.archive.checkpointEvery {
		if err := m.Checkpoint(now); err != nil {
			m.archive.lastAppendErr = err.Error()
		}
	}
}

// Checkpoint writes a full-state checkpoint — delta log, processor
// series, stability trackers, health ledger — stamped at now, bounding
// the WAL tail a future recovery must replay. No-op without an archive.
//
//mantra:statetransfer root=checkpoint-export
func (m *Monitor) Checkpoint(now time.Time) error {
	if m.archive == nil {
		return nil
	}
	trackers := m.core.Engine.StabilityTrackers()
	extra := archiveExtra{
		Proc:      m.core.Proc.ExportState(),
		Stability: make(map[string]*process.StabilityState, len(trackers)),
		Health:    m.core.Collector.Health(),
	}
	for target, rs := range trackers {
		extra.Stability[target] = rs.ExportState()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(extra); err != nil {
		return fmt.Errorf("mantra: checkpoint monitor state: %w", err)
	}
	if err := m.core.Store.WriteCheckpoint(m.core.Log, buf.Bytes(), now); err != nil {
		return err
	}
	m.archive.cyclesSince = 0
	return nil
}

// ArchiveStatus returns the archive's operator view (served at /archive),
// or the zero value when no archive is enabled.
func (m *Monitor) ArchiveStatus() ArchiveStatus {
	if m.archive == nil {
		return ArchiveStatus{}
	}
	st := ArchiveStatus{
		Store:           m.core.Store.Stats(),
		Recovery:        m.archive.report,
		LastAppendError: m.archive.lastAppendErr,
	}
	if err := m.core.Proc.Store().PersistErr(); err != nil {
		st.MirrorError = err.Error()
	}
	return st
}

// CloseArchive checkpoints at now and closes the archive; the monitor
// keeps running in-memory-only. No-op without an archive.
func (m *Monitor) CloseArchive(now time.Time) error {
	if m.archive == nil {
		return nil
	}
	err := m.Checkpoint(now)
	if cerr := m.core.Store.Close(); err == nil {
		err = cerr
	}
	m.core.Store = nil
	if cerr := m.core.Proc.Store().CloseDir(); err == nil {
		err = cerr
	}
	m.archive = nil
	return err
}
