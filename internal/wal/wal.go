// Package wal is an append-only write-ahead log of opaque records. The
// daemon logs every mutating command before applying it; after a crash,
// replaying the log through the same command functions rebuilds state that
// is byte-identical to a never-crashed run, because placements are a
// deterministic function of command order.
//
// On-disk layout: a directory of segment files named <seq>.wal (seq is a
// zero-padded decimal, strictly increasing, never reused). Each segment
// starts with a header frame carrying the format version; every frame is
//
//	[4-byte little-endian payload length][4-byte CRC32-IEEE of payload][payload]
//
// Torn writes are expected: a crash can leave a half-written frame at the
// tail of the *last* segment. Replay truncates such a tail (the record was
// never acknowledged under SyncAlways) and the log continues from the cut.
// A bad frame anywhere *else* — an interior segment, or followed by valid
// frames — cannot be explained by a torn write and is a hard error.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Version guards the frame format. A segment header carrying a different
// version is a hard error: silently replaying records under the wrong
// framing would corrupt state.
const Version = 1

// frameHeaderSize is the per-record overhead: u32 length + u32 CRC.
const frameHeaderSize = 8

// maxRecordBytes bounds a single payload. A length prefix beyond it is
// treated as corruption rather than an allocation request.
const maxRecordBytes = 16 << 20

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero.
const DefaultSegmentBytes = 64 << 20

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged record
	// survives power loss. This is the default and the only policy under
	// which recovery is lossless.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs lazily, at most once per Options.SyncEvery
	// (checked on append). Bounded loss: records appended since the last
	// sync can vanish in a crash.
	SyncInterval
	// SyncOff never fsyncs explicitly; the OS flushes when it pleases.
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy maps the flag spellings to policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval, or off)", s)
}

// Options parameterizes a Log.
type Options struct {
	// Policy selects the fsync discipline; zero value is SyncAlways.
	Policy SyncPolicy
	// SyncEvery is the minimum spacing between fsyncs under SyncInterval.
	SyncEvery time.Duration
	// SegmentBytes rotates to a fresh segment once the current one would
	// exceed this size; 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// SyncFile performs the fsync; nil means (*os.File).Sync. Tests inject
	// failures here.
	SyncFile func(*os.File) error
	// OnAppend and OnSync observe the wall-clock seconds of each append
	// write and each fsync (for latency histograms); nil ignores.
	OnAppend func(seconds float64)
	OnSync   func(seconds float64)
}

// ReplayStats summarizes a recovery pass.
type ReplayStats struct {
	// Records is how many payloads were handed to the replay function.
	Records int
	// Segments is how many segment files were read.
	Segments int
	// Truncated reports that a torn tail was cut from the last segment.
	Truncated bool
	// TornBytes is how many trailing bytes the truncation discarded.
	TornBytes int64
}

// segHeader is the first frame of every segment.
type segHeader struct {
	Version int    `json:"version"`
	Segment uint64 `json:"segment"`
}

// Log is an append-only write-ahead log over a directory of segments.
// Append/Sync/Reset/Close are safe for concurrent use; Replay must happen
// before the first Append (Open leaves the cursor at the end of the last
// segment only after Replay has validated and possibly truncated it).
type Log struct {
	dir string
	opt Options

	mu       sync.Mutex
	f        *os.File
	seq      uint64 // current segment sequence number
	size     int64  // current segment size in bytes
	segs     int    // segment files on disk (rotation grows it, Reset collapses it)
	lastSync time.Time
	dirty    bool // bytes written since the last fsync
	replayed bool
	closed   bool
	// failed poisons the log after a write or fsync error: the frame may
	// already be partially on disk, so continuing to append would let the
	// durable history diverge from the acknowledged one. Every later call
	// returns this error; the process must restart (and recover) to
	// resume logging.
	failed error
}

// Open creates dir if needed and positions the log on its last segment
// (creating segment 1 for an empty directory). Call Replay before the
// first Append: it validates existing segments and truncates a torn tail.
func Open(dir string, opt Options) (*Log, error) {
	if dir == "" {
		return nil, errors.New("wal: empty directory")
	}
	if opt.Policy == SyncInterval && opt.SyncEvery <= 0 {
		return nil, fmt.Errorf("wal: SyncInterval needs a positive SyncEvery, got %v", opt.SyncEvery)
	}
	if opt.SegmentBytes == 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if opt.SegmentBytes < 0 {
		return nil, fmt.Errorf("wal: negative SegmentBytes %d", opt.SegmentBytes)
	}
	if opt.SyncFile == nil {
		opt.SyncFile = (*os.File).Sync
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	// Prove the directory is writable now, while failing is still cheap: a
	// log that opens fine but cannot append would poison itself on the
	// first mutating command instead of at startup. Multi-tenant daemons
	// open one log per tenant directory, so the probe also catches a
	// tenant subdirectory that exists but is unusable.
	probe, err := os.CreateTemp(dir, ".wal-probe-*")
	if err != nil {
		return nil, fmt.Errorf("wal: dir %s not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	l := &Log{dir: dir, opt: opt}
	seqs, err := l.segments()
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		if err := l.openSegment(1, true); err != nil {
			return nil, err
		}
		l.segs = 1
		l.replayed = true // nothing to replay
		return l, nil
	}
	// Existing segments: open the last for append. Its tail is validated
	// (and possibly truncated) by Replay.
	if err := l.openSegment(seqs[len(seqs)-1], false); err != nil {
		return nil, err
	}
	l.segs = len(seqs)
	return l, nil
}

// segments lists the segment sequence numbers in ascending order.
func (l *Log) segments() ([]uint64, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var seqs []uint64
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".wal") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: stray file %s in log directory", name)
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

func (l *Log) segPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%016d.wal", seq))
}

// openSegment points the log at segment seq, writing the header frame when
// create is set. Caller holds the lock (or is the constructor).
func (l *Log) openSegment(seq uint64, create bool) error {
	flags := os.O_RDWR | os.O_APPEND
	if create {
		flags |= os.O_CREATE | os.O_EXCL
	}
	f, err := os.OpenFile(l.segPath(seq), flags, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment %d: %w", seq, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: stat segment %d: %w", seq, err)
	}
	l.f, l.seq, l.size = f, seq, st.Size()
	if create {
		hdr, err := json.Marshal(segHeader{Version: Version, Segment: seq})
		if err != nil {
			return err
		}
		if err := l.writeFrame(hdr); err != nil {
			return err
		}
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	return nil
}

// writeFrame appends one framed payload to the current segment. Caller
// holds the lock.
func (l *Log) writeFrame(payload []byte) error {
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte frame cap", len(payload), maxRecordBytes)
	}
	buf := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeaderSize:], payload)
	if _, err := l.f.Write(buf); err != nil {
		l.failed = fmt.Errorf("wal: append: %w", err)
		return l.failed
	}
	l.size += int64(len(buf))
	l.dirty = true
	return nil
}

// Append frames payload, writes it to the current segment (rotating first
// if the segment is full), and fsyncs per the policy. When Append returns
// nil under SyncAlways, the record is on stable storage.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: append to closed log")
	}
	if l.failed != nil {
		return l.failed
	}
	if !l.replayed {
		return errors.New("wal: Append before Replay on a non-empty log")
	}
	need := int64(frameHeaderSize + len(payload))
	if l.size > 0 && l.size+need > l.opt.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	start := time.Now()
	if err := l.writeFrame(payload); err != nil {
		return err
	}
	if l.opt.OnAppend != nil {
		l.opt.OnAppend(time.Since(start).Seconds())
	}
	switch l.opt.Policy {
	case SyncAlways:
		return l.syncLocked()
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opt.SyncEvery {
			return l.syncLocked()
		}
	}
	return nil
}

// rotateLocked seals the current segment (final fsync) and starts the next.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment %d: %w", l.seq, err)
	}
	if err := l.openSegment(l.seq+1, true); err != nil {
		return err
	}
	l.segs++
	return nil
}

// Sync forces the current segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: sync on closed log")
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.opt.SyncFile(l.f); err != nil {
		l.failed = fmt.Errorf("wal: fsync segment %d: %w", l.seq, err)
		return l.failed
	}
	if l.opt.OnSync != nil {
		l.opt.OnSync(time.Since(start).Seconds())
	}
	l.dirty = false
	l.lastSync = time.Now()
	return nil
}

// Reset compacts the log after a snapshot has captured all appended state:
// it seals the current segment, starts a fresh one (sequence numbers keep
// increasing, never reused), and deletes every older segment. If the
// process dies between the caller's snapshot and Reset, replay skips the
// already-snapshotted records by LSN, so compaction is crash-safe at any
// point.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: reset on closed log")
	}
	old := l.seq
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment %d: %w", old, err)
	}
	if err := l.openSegment(old+1, true); err != nil {
		return err
	}
	seqs, err := l.segments()
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq <= old {
			if err := os.Remove(l.segPath(seq)); err != nil {
				return fmt.Errorf("wal: remove compacted segment %d: %w", seq, err)
			}
		}
	}
	l.segs = 1
	return nil
}

// SegmentCount returns how many segment files the log currently spans —
// the active segment plus every sealed one not yet compacted away.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs
}

// ActiveSegmentBytes returns the byte size of the segment currently being
// appended to (header frame included). Together with SegmentCount it makes
// rotation and compaction visible to metrics without listing the directory.
func (l *Log) ActiveSegmentBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close fsyncs outstanding bytes and closes the current segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Replay streams every record payload, oldest first, through fn. It must
// run before the first Append. A torn tail on the last segment — short
// frame, bad CRC, or oversized length at the very end — is truncated and
// reported in the stats; the same damage anywhere else is a hard error, as
// is an fn error (which aborts the replay).
func (l *Log) Replay(fn func(payload []byte) error) (ReplayStats, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var stats ReplayStats
	if l.closed {
		return stats, errors.New("wal: replay on closed log")
	}
	if l.replayed {
		return stats, nil // fresh log, nothing recorded yet
	}
	seqs, err := l.segments()
	if err != nil {
		return stats, err
	}
	for i, seq := range seqs {
		last := i == len(seqs)-1
		if err := l.replaySegment(seq, last, fn, &stats); err != nil {
			return stats, err
		}
		stats.Segments++
	}
	// Re-stat: a truncation changed the tail segment's size.
	st, err := l.f.Stat()
	if err != nil {
		return stats, fmt.Errorf("wal: stat after replay: %w", err)
	}
	l.size = st.Size()
	l.replayed = true
	return stats, nil
}

// replaySegment reads one segment. Caller holds the lock. A torn tail is
// truncated (last segment only); if the cut removes the segment's own
// header frame, a fresh header is appended so the segment stays parseable
// by the next recovery.
func (l *Log) replaySegment(seq uint64, last bool, fn func([]byte) error, stats *ReplayStats) error {
	path := l.segPath(seq)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: open segment %d: %w", seq, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat segment %d: %w", seq, err)
	}
	total := fi.Size()

	headerSeen := false
	// truncate cuts the torn tail at off. Only legal on the last segment:
	// anywhere else the damage cannot be a torn final write.
	truncate := func(off int64, cause string) error {
		if !last {
			return fmt.Errorf("wal: segment %d corrupt at offset %d (%s) with later segments present", seq, off, cause)
		}
		if err := os.Truncate(path, off); err != nil {
			return fmt.Errorf("wal: truncate torn tail of segment %d: %w", seq, err)
		}
		stats.Truncated = true
		stats.TornBytes += total - off
		if !headerSeen {
			// The cut removed the header (a crash during segment creation):
			// re-stamp it so the segment parses next time.
			hdr, err := json.Marshal(segHeader{Version: Version, Segment: seq})
			if err != nil {
				return err
			}
			if err := l.writeFrame(hdr); err != nil {
				return err
			}
			l.dirty = true
			return l.syncLocked()
		}
		return nil
	}

	var off int64
	hdr := make([]byte, frameHeaderSize)
	for off < total {
		if total-off < frameHeaderSize {
			return truncate(off, "short frame header")
		}
		if _, err := io.ReadFull(f, hdr); err != nil {
			return fmt.Errorf("wal: read segment %d at %d: %w", seq, off, err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxRecordBytes {
			return truncate(off, "implausible frame length")
		}
		if off+frameHeaderSize+n > total {
			return truncate(off, "frame runs past end of segment")
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return fmt.Errorf("wal: read segment %d payload at %d: %w", seq, off, err)
		}
		if crc32.ChecksumIEEE(payload) != want {
			// A CRC mismatch on the final frame is a torn write; earlier it
			// means silent corruption we must not replay past.
			if off+frameHeaderSize+n == total {
				return truncate(off, "crc mismatch on final frame")
			}
			return fmt.Errorf("wal: segment %d record at offset %d fails its CRC with later records intact", seq, off)
		}
		if !headerSeen {
			headerSeen = true
			var h segHeader
			if err := json.Unmarshal(payload, &h); err != nil {
				return fmt.Errorf("wal: segment %d header: %w", seq, err)
			}
			if h.Version != Version {
				return fmt.Errorf("wal: segment %d has format version %d, this binary reads %d", seq, h.Version, Version)
			}
		} else {
			if err := fn(payload); err != nil {
				return fmt.Errorf("wal: replay segment %d record at offset %d: %w", seq, off, err)
			}
			stats.Records++
		}
		off += frameHeaderSize + n
	}
	if total == 0 && last {
		// An empty last segment: the crash hit between file creation and
		// the header write. Stamp the header so the segment is valid.
		return truncate(0, "empty segment")
	}
	if total == 0 {
		return fmt.Errorf("wal: interior segment %d is empty", seq)
	}
	return nil
}
