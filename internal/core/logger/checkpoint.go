// Checkpoints and restart recovery for the durable archive.
//
// A checkpoint is one atomic file (write-temp, fsync, rename) holding the
// gob-encoded full Logger state plus an opaque caller payload (the
// monitor stores its processor series, stability trackers and health
// ledger there), stamped with the WAL sequence number it covers. Recovery
// loads the newest valid checkpoint — falling back to an older one if the
// newest is damaged — and replays only the WAL records past it. Segments
// wholly covered by every retained checkpoint are pruned.
package logger

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core/tables"
)

// ckptPayload is the serialized checkpoint contents.
//
//mantra:codec pair=ckpt-payload magic=ckptMagic shape=ffce7c983bc79249
type ckptPayload struct {
	// Seq is the last WAL sequence number the checkpoint covers.
	Seq uint64
	// At is the checkpoint instant (cycle clock, not wall clock).
	At time.Time
	// State is the complete Logger state.
	State *State
	// Extra is an opaque caller payload restored verbatim on recovery.
	Extra []byte
}

// ReplayEvent is one WAL-tail record recovery hands back for re-ingestion
// by downstream consumers (series, stability, health).
type ReplayEvent struct {
	Target string
	At     time.Time
	// Snapshot is the full materialized table state as of this cycle —
	// what the original Ingest saw — nil for gap events. The MSDP/MBGP
	// tables are not delta-logged, so their magnitudes travel separately
	// in SACache and MBGPRoutes.
	Snapshot   *tables.Snapshot
	SACache    int
	MBGPRoutes int
	// Gap marks a failed cycle; Reason carries its recorded error.
	Gap    bool
	Reason string
}

// Replay applies one committed delta record and returns its replay
// event, carrying the tables as materialized after it. This is the one
// apply-then-materialize step both replay paths share: Recover over a
// WAL tail, and shard handoff over a target's committed in-memory tail.
func (l *Logger) Replay(target string, rec CycleRecord, fullEntries uint64) ReplayEvent {
	l.ApplyRecord(target, rec, fullEntries)
	sn, _ := l.Materialized(target)
	return ReplayEvent{
		Target:     target,
		At:         rec.At,
		Snapshot:   sn,
		SACache:    rec.SACache,
		MBGPRoutes: rec.MBGPRoutes,
	}
}

// ReplayGap records one committed gap marker and returns its replay
// event — Replay's counterpart for failed cycles.
func (l *Logger) ReplayGap(target string, at time.Time, reason string) ReplayEvent {
	l.MarkGap(target, at, reason)
	return ReplayEvent{Target: target, At: at, Gap: true, Reason: reason}
}

// RecoveredArchive is the result of replaying checkpoint plus WAL tail.
type RecoveredArchive struct {
	// Logger holds the fully rebuilt delta log.
	Logger *Logger
	// Extra is the opaque payload of the loaded checkpoint, nil without one.
	Extra []byte
	// Events lists the WAL-tail records past the checkpoint, in log order.
	Events []ReplayEvent
	// CheckpointAt is the instant of the loaded checkpoint (zero without one).
	CheckpointAt time.Time
	Stats        RecoveryStats
}

// Recover rebuilds the archived state found by the open-time scan: the
// checkpoint's Logger plus every surviving WAL-tail record applied in log
// order. Each applied delta also yields a materialized snapshot so the
// caller can re-ingest the tail cycles into its own consumers. Recover
// may be called once per Open; the cached scan results are released.
func (s *Store) Recover() *RecoveredArchive {
	s.mu.Lock()
	defer s.mu.Unlock()
	ra := &RecoveredArchive{Stats: s.stats.Recovery}
	if s.ckpt != nil {
		ra.Logger = FromState(s.ckpt.State)
		ra.Extra = s.ckpt.Extra
		ra.CheckpointAt = s.ckpt.At
	} else {
		ra.Logger = New()
	}
	for _, r := range s.tail {
		switch r.Kind {
		case recDelta:
			ra.Events = append(ra.Events, ra.Logger.Replay(r.Target, r.Rec, r.FullEntries))
		case recGap:
			ra.Events = append(ra.Events, ra.Logger.ReplayGap(r.Target, r.At, r.Reason))
		case recMeta:
			// Target announced but no cycle survived; materialize it empty.
			ra.Logger.target(r.Target)
		}
	}
	s.ckpt = nil
	s.tail = nil
	return ra
}

// WriteCheckpoint atomically persists the full state of l plus the
// caller's opaque extra payload, covering every record appended so far.
// l must reflect exactly the records the store has seen — the monitor
// guarantees this by checkpointing between cycles. After a successful
// write, checkpoints beyond the retention count and segments covered by
// every retained checkpoint are pruned.
//
//mantra:sink serialization
func (s *Store) WriteCheckpoint(l *Logger, extra []byte, now time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Records covered by the checkpoint may be pruned, so they must be
	// durable first.
	if s.seg != nil {
		//mantralint:allow lockheld fsync under s.mu is the durability contract: the single-writer lock serializes append+sync so readers never see a segment ahead of stable storage
		if err := s.seg.Sync(); err != nil {
			return fmt.Errorf("logger: checkpoint: sync wal: %w", err)
		}
	}
	pay := ckptPayload{Seq: s.seq, At: now, State: l.ExportState(), Extra: extra}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&pay); err != nil {
		return fmt.Errorf("logger: checkpoint: encode: %w", err)
	}
	buf := make([]byte, 0, len(ckptMagic)+frameHeader+body.Len())
	buf = append(buf, ckptMagic...)
	var hdr [frameHeader]byte
	putU32(hdr[0:], uint32(body.Len()))
	putU32(hdr[4:], crc32.Checksum(body.Bytes(), castagnoli))
	buf = append(buf, hdr[:]...)
	buf = append(buf, body.Bytes()...)

	final := filepath.Join(s.dir, ckptName(pay.Seq))
	tmp := final + ".tmp"
	//mantralint:allow lockheld checkpoint durability: the tmp-file write+fsync must complete under s.mu so no append lands between the state export and the rename
	if err := writeFileSync(tmp, buf); err != nil {
		return fmt.Errorf("logger: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("logger: checkpoint: %w", err)
	}
	syncDir(s.dir) //mantralint:allow lockheld directory fsync under s.mu: the checkpoint is not durable until its directory entry is
	s.stats.Checkpoints++
	s.stats.CheckpointSeq = pay.Seq
	s.stats.LastCheckpointAt = now
	s.prune()
	return nil
}

// prune removes checkpoints beyond the retention count and segments whose
// records are covered by every retained checkpoint; the caller holds s.mu.
func (s *Store) prune() {
	names, err := s.listFiles("ckpt-", ".ck")
	if err != nil {
		return
	}
	keep := s.opts.KeepCheckpoints
	if len(names) > keep {
		for _, name := range names[:len(names)-keep] {
			_ = os.Remove(filepath.Join(s.dir, name)) //mantralint:allow walerr retention pruning is best-effort; a surviving file is retried next prune and never corrupts state
		}
		names = names[len(names)-keep:]
	}
	if len(names) == 0 {
		return
	}
	// Segments are only safe to drop below the OLDEST retained checkpoint:
	// if the newest is damaged, recovery falls back and needs the tail
	// from the older one.
	var minSeq uint64
	fmt.Sscanf(names[0], "ckpt-%020d.ck", &minSeq)
	kept := s.segments[:0]
	for _, seg := range s.segments {
		if seg.last != 0 && seg.last <= minSeq {
			_ = os.Remove(filepath.Join(s.dir, seg.name)) //mantralint:allow walerr retention pruning is best-effort; a surviving segment is harmlessly re-scanned on restart
			continue
		}
		kept = append(kept, seg)
	}
	s.segments = kept
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	//mantralint:allow waltaint callers hand writeFileSync fully framed buffers (magic+length+CRC built in WriteCheckpoint); the checksum is computed one frame up
	if _, err := f.Write(data); err != nil {
		f.Close() //mantralint:allow walerr abandoning a failed write; the write error is already returned
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //mantralint:allow walerr abandoning a failed sync; the sync error is already returned
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames are durable; best effort on
// platforms where directories cannot be synced.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()  //mantralint:allow walerr documented best-effort: directory fsync is unsupported on some platforms
		_ = d.Close() //mantralint:allow walerr read-only directory handle; nothing to flush
	}
}

// loadCheckpoint reads and validates one checkpoint file.
func loadCheckpoint(path string) (*ckptPayload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(ckptMagic)+frameHeader || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("logger: checkpoint %s: bad magic", filepath.Base(path))
	}
	hdr := data[len(ckptMagic):]
	ln := u32at(hdr, 0)
	sum := u32at(hdr, 4)
	body := hdr[frameHeader:]
	if uint64(ln) != uint64(len(body)) {
		return nil, fmt.Errorf("logger: checkpoint %s: truncated", filepath.Base(path))
	}
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, fmt.Errorf("logger: checkpoint %s: checksum mismatch", filepath.Base(path))
	}
	var pay ckptPayload
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&pay); err != nil {
		return nil, fmt.Errorf("logger: checkpoint %s: decode: %w", filepath.Base(path), err)
	}
	return &pay, nil
}

func u32at(b []byte, off int) uint32 {
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
}

// scan is the open-time pass: locate the newest valid checkpoint, walk
// every segment record by record, truncate a torn or corrupt tail at the
// last valid record, and cache what survives for Recover.
func (s *Store) scan() error {
	// Leftover temp files are aborted checkpoint writes.
	if tmps, err := s.listFiles("ckpt-", ".tmp"); err == nil {
		for _, name := range tmps {
			_ = os.Remove(filepath.Join(s.dir, name)) //mantralint:allow walerr leftover temp cleanup is best-effort; a survivor is ignored by recovery and retried next open
		}
	}

	// Newest valid checkpoint wins; damaged ones are counted and skipped.
	ckpts, err := s.listFiles("ckpt-", ".ck")
	if err != nil {
		return fmt.Errorf("logger: scan: %w", err)
	}
	var ckptSeq uint64
	for i := len(ckpts) - 1; i >= 0; i-- {
		pay, err := loadCheckpoint(filepath.Join(s.dir, ckpts[i]))
		if err != nil {
			s.stats.Recovery.CorruptCheckpoints++
			continue
		}
		s.ckpt = pay
		ckptSeq = pay.Seq
		s.stats.Recovery.CheckpointLoaded = true
		s.stats.Recovery.CheckpointSeq = pay.Seq
		s.stats.CheckpointSeq = pay.Seq
		s.stats.LastCheckpointAt = pay.At
		break
	}
	if s.ckpt != nil {
		for name := range s.ckpt.State.Targets {
			s.metaSeen[name] = true
		}
	}

	segs, err := s.listFiles("wal-", ".seg")
	if err != nil {
		return fmt.Errorf("logger: scan: %w", err)
	}
	var prev uint64
	dead := false // a corruption point drops everything after it
	var scanned []segmentInfo
	for _, name := range segs {
		path := filepath.Join(s.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("logger: scan %s: %w", name, err)
		}
		if dead {
			s.stats.Recovery.TruncatedBytes += int64(len(data))
			_ = os.Remove(path) //mantralint:allow walerr dropping segments past a corruption point is best-effort; the truncated-byte count already records the loss
			continue
		}
		recs, valid, defect := scanSegment(data, &prev)
		for _, r := range recs {
			if r.Seq <= ckptSeq {
				s.stats.Recovery.RecordsSkipped++
				continue
			}
			s.tail = append(s.tail, r)
		}
		if defect != "" {
			dead = true
			s.stats.Recovery.TornTail = true
			s.stats.Recovery.TailError = fmt.Sprintf("%s: %s", name, defect)
			s.stats.Recovery.TruncatedBytes += int64(len(data)) - valid
			if valid < int64(len(segMagic)) {
				// Nothing usable, not even the header: drop the file.
				_ = os.Remove(path) //mantralint:allow walerr best-effort drop of an empty corrupt file; recovery stats already record the torn tail
				continue
			}
			if err := os.Truncate(path, valid); err != nil {
				return fmt.Errorf("logger: repair %s: %w", name, err)
			}
		}
		scanned = append(scanned, segmentInfo{
			name:  name,
			first: firstSeqOf(recs, prev),
			last:  prev,
			size:  valid,
		})
	}

	// A hole between checkpoint and tail means the tail cannot be applied.
	if len(s.tail) > 0 && s.ckpt != nil && s.tail[0].Seq > ckptSeq+1 {
		s.stats.Recovery.TornTail = true
		s.stats.Recovery.TailError = fmt.Sprintf(
			"wal resumes at seq %d past checkpoint seq %d", s.tail[0].Seq, ckptSeq)
		s.stats.Recovery.RecordsSkipped += len(s.tail)
		s.tail = nil
	}
	s.stats.Recovery.RecordsReplayed = len(s.tail)
	for _, r := range s.tail {
		if r.Kind == recMeta || r.Kind == recDelta {
			s.metaSeen[r.Target] = true
		}
	}

	s.seq = prev
	if ckptSeq > s.seq {
		s.seq = ckptSeq
	}
	if len(scanned) > 0 {
		last := scanned[len(scanned)-1]
		s.segments = scanned[:len(scanned)-1]
		if err := s.resumeSegment(last); err != nil {
			return err
		}
	}
	return nil
}

func firstSeqOf(recs []walRecord, fallback uint64) uint64 {
	if len(recs) > 0 {
		return recs[0].Seq
	}
	return fallback
}

// scanSegment walks one segment's frames, returning the valid records,
// the byte offset up to which the file is intact, and a description of
// the first defect found ("" when the segment is clean).
func scanSegment(data []byte, prev *uint64) (recs []walRecord, valid int64, defect string) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return nil, 0, "bad segment magic"
	}
	off := len(segMagic)
	for off < len(data) {
		if len(data)-off < frameHeader {
			return recs, int64(off), "torn frame header"
		}
		ln := u32at(data, off)
		sum := u32at(data, off+4)
		if ln == 0 || ln > maxRecordBytes {
			return recs, int64(off), "implausible record length"
		}
		if int64(off)+frameHeader+int64(ln) > int64(len(data)) {
			return recs, int64(off), "torn record payload"
		}
		payload := data[off+frameHeader : off+frameHeader+int(ln)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, int64(off), "checksum mismatch"
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return recs, int64(off), "undecodable record"
		}
		if rec.Seq == 0 || (*prev != 0 && rec.Seq != *prev+1) {
			return recs, int64(off), "sequence discontinuity"
		}
		*prev = rec.Seq
		recs = append(recs, rec)
		off += frameHeader + int(ln)
	}
	return recs, int64(len(data)), ""
}
