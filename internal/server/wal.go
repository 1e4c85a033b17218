package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"mecache/internal/mec"
	"mecache/internal/wal"
)

// Mutating command kinds recorded in the write-ahead log. Read-only
// requests and admin snapshots are never logged: replaying the mutating
// commands in order reproduces the market state exactly, because every
// placement decision is a deterministic function of command order (the
// epoch tie-break stream is seeded by Seed+epochs, itself replayed state).
const (
	opAdmit  = "admit"
	opDepart = "depart"
	opFail   = "fail"
	opRepair = "repair"
	opEpoch  = "epoch"
)

// walRecord is one mutating command, serialized as the WAL payload. LSN is
// the daemon-wide log sequence number: strictly increasing by one per
// logged command, carried in snapshots so recovery can skip records the
// snapshot already captured (which makes snapshot-then-compact crash-safe
// at every intermediate point).
type walRecord struct {
	LSN      uint64        `json:"lsn"`
	Op       string        `json:"op"`
	Provider *mec.Provider `json:"provider,omitempty"` // admit
	ID       int64         `json:"id"`                 // depart
	Cloudlet int           `json:"cloudlet"`           // fail, repair
}

// logCommand appends rec to the WAL (assigning the next LSN) and fsyncs
// per the configured policy. Only the event loop calls this, always BEFORE
// applying the command: when it fails, the command must not run, or a
// crash would silently lose an acknowledged mutation.
func (s *Server) logCommand(rec *walRecord) error {
	if s.wal == nil || rec == nil {
		return nil
	}
	rec.LSN = s.st.lsn + 1
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encode wal record: %w", err)
	}
	if err := s.wal.Append(data); err != nil {
		s.mWALErrs.Inc()
		return err
	}
	s.st.lsn = rec.LSN
	return nil
}

// applyRecord dispatches a replayed command through the exact functions
// the live loop uses. Command-level failures (rejected admissions, departs
// of unknown ids, double fails) are part of the deterministic history —
// the live loop replied with an error and kept going, so replay does too.
// Only structurally impossible records (unknown op, admit without a
// provider) abort recovery: the log itself cannot be trusted then.
func (s *Server) applyRecord(st *state, rec walRecord) error {
	switch rec.Op {
	case opAdmit:
		if rec.Provider == nil {
			return fmt.Errorf("admit record without provider")
		}
		s.admitCmd(st, *rec.Provider)
	case opDepart:
		s.departCmd(st, rec.ID)
	case opFail:
		s.failCmd(st, rec.Cloudlet)
	case opRepair:
		s.repairCmd(st, rec.Cloudlet)
	case opEpoch:
		s.epochCmd(st)
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	return nil
}

// recoverWAL opens the log and replays its tail over the restored snapshot
// state. Records at or below the snapshot's LSN are skipped (the snapshot
// already contains their effects); the rest must form a gap-free sequence.
// A torn tail was truncated by the wal layer (logged and counted here); a
// gap or an interior-corrupt log is a hard startup error.
func (s *Server) recoverWAL() error {
	pol, err := wal.ParseSyncPolicy(s.cfg.walSyncOrDefault())
	if err != nil {
		return err
	}
	l, err := wal.Open(s.cfg.WALDir, wal.Options{
		Policy:       pol,
		SyncEvery:    s.cfg.WALSyncInterval,
		SegmentBytes: s.cfg.WALSegmentBytes,
		// The hooks fire inside Append, on the event-loop goroutine; the
		// last* fields let execCommand read the measured durations back as
		// wal_append/wal_fsync child spans of a traced command (they are
		// loop-owned scratch, so no lock is needed).
		OnAppend: func(sec float64) { s.hWALAppend.Observe(sec); s.lastAppendSec = sec },
		OnSync:   func(sec float64) { s.hWALSync.Observe(sec); s.lastSyncSec = sec },
	})
	if err != nil {
		return err
	}
	s.wal = l
	s.recovering = true
	defer func() { s.recovering = false }()

	start := time.Now()
	snapLSN := s.st.lsn
	skipped := 0
	stats, err := l.Replay(func(payload []byte) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("decode record: %w", err)
		}
		if rec.LSN <= snapLSN {
			skipped++
			return nil
		}
		if rec.LSN != s.st.lsn+1 {
			return fmt.Errorf("lsn gap: state at %d, next record %d", s.st.lsn, rec.LSN)
		}
		s.st.lsn = rec.LSN
		return s.applyRecord(&s.st, rec)
	})
	if err != nil {
		l.Close()
		s.wal = nil
		return fmt.Errorf("server: wal recovery: %w", err)
	}
	applied := stats.Records - skipped
	elapsed := time.Since(start)
	s.gRecoverySec.Set(elapsed.Seconds())
	s.gRecoveredRecs.Set(float64(applied))
	if stats.Truncated {
		s.mWALTruncations.Inc()
	}
	s.log.Info("wal recovery complete",
		"dir", s.cfg.WALDir, "segments", stats.Segments, "records", stats.Records,
		"skipped", skipped, "applied", applied, "snapshotLSN", snapLSN, "lsn", s.st.lsn,
		"tornTailTruncated", stats.Truncated, "tornBytes", stats.TornBytes,
		"durationMs", float64(elapsed.Microseconds())/1000)
	return nil
}

// compactWAL truncates the log after a successful snapshot: everything up
// to the current LSN is now durable in the snapshot, so the replay tail
// restarts empty. A compaction failure is not fatal — the LSN skip makes
// replaying already-snapshotted records harmless — but it is logged and
// counted, because a log that never compacts grows without bound.
func (s *Server) compactWAL() {
	if s.wal == nil {
		return
	}
	if err := s.wal.Reset(); err != nil {
		s.mWALErrs.Inc()
		s.log.Error("wal compaction failed", "dir", s.cfg.WALDir, "err", err)
	}
}

// closeWAL releases the log on shutdown (final fsync included).
func (s *Server) closeWAL() {
	if s.wal == nil {
		return
	}
	if err := s.wal.Close(); err != nil {
		s.log.Error("wal close failed", "dir", s.cfg.WALDir, "err", err)
	}
}

// shedResult is the overload reply: the bounded command queue is full, so
// instead of blocking the handler (and eventually every client) the daemon
// sheds the request with 429 and a Retry-After hint.
func shedResult(depth int) cmdResult {
	return cmdResult{
		status:     http.StatusTooManyRequests,
		retryAfter: 1,
		err:        fmt.Errorf("server: command queue full (%d queued); retry with backoff", depth),
	}
}
