// Fixture for the walerr analyzer over the per-shard WALs; loaded "as"
// internal/core/shard. The positives are the two bug shapes the
// supervisor once had: a handoff gap-marker append whose error was
// dropped, and shard store closes whose errors never reached Close.
package shard

import "time"

type store struct{}

func (s *store) AppendGap(target string, at time.Time, reason string) error { return nil }
func (s *store) Close() error                                               { return nil }

type worker struct{ store *store }

// markBlind drops the gap-marker append error: the marker the fleet's
// blind-window contract needs may silently never reach the WAL.
func markBlind(o *worker, name string, cycles []time.Time) {
	for _, ct := range cycles {
		o.store.AppendGap(name, ct, "shard handoff: blind cycle") // want `AppendGap returns an error that is silently dropped`
	}
}

// closeWorkers drops every close error, so Close always reports nil.
func closeWorkers(ws []*worker) {
	for _, w := range ws {
		w.store.Close() // want `Close returns an error that is silently dropped`
	}
}

// markBlindRecorded keeps the first append error for the cycle result
// — the contract, no finding.
func markBlindRecorded(o *worker, name string, cycles []time.Time) error {
	var werr error
	for _, ct := range cycles {
		if err := o.store.AppendGap(name, ct, "shard handoff: blind cycle"); err != nil && werr == nil {
			werr = err
		}
	}
	return werr
}

// closeJoined collects the close errors for the caller — also fine.
func closeJoined(ws []*worker) []error {
	var errs []error
	for _, w := range ws {
		errs = append(errs, w.store.Close())
	}
	return errs
}
