// Package wal is the durability substrate of the serving layer: a
// segmented, CRC-framed write-ahead log plus point-in-time snapshot files.
// The server appends one record per state-changing operation (ingest
// batches, subscribes, flushes, quarantines) and periodically persists a
// snapshot of its full state stamped with the log sequence number (LSN) it
// covers; recovery loads the newest valid snapshot and replays the WAL
// suffix after it.
//
// On-disk layout (little-endian throughout), one directory per server:
//
//	wal-%016x.log    log segments, named by the LSN of their first record
//	snap-%016x.snap  snapshots, named by the LSN they cover
//
// Segment layout: a 13-byte header (magic "MQWL", version byte, first-LSN
// uint64) followed by records:
//
//	offset 0  length  4 bytes  uint32 len(kind+payload)
//	offset 4  crc     4 bytes  CRC-32C (Castagnoli) over kind+payload
//	offset 8  kind    1 byte   caller-defined record kind
//	offset 9  payload length-1 bytes
//
// LSNs are implicit: a segment's i-th record has LSN firstLSN+i, so the
// log needs no index. A torn tail — the partially written record a crash
// leaves behind — is detected on Open by the first length/CRC violation in
// the *last* segment and truncated back to the last valid record; the same
// violation in any earlier segment is real corruption and surfaces as a
// typed ErrCorrupt instead.
//
// Write path: appends go through one buffered writer; Commit flushes it to
// the OS (so a SIGKILL loses at most the records of the in-flight batch)
// and fsyncs per the configured SyncPolicy. A background tick bounds
// staleness for callers that never Commit and drives SyncInterval. All IO
// errors are sticky: once an append, flush or fsync fails the Log refuses
// further appends with the original error, which the server surfaces as
// degraded read-only mode.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// SyncPolicy picks when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncOff never fsyncs: records are flushed to the OS at batch
	// boundaries (surviving a process kill) but a power loss can drop the
	// unsynced suffix. Clients re-drive lost batches via idempotency keys.
	SyncOff SyncPolicy = iota
	// SyncInterval fsyncs on the background tick (Options.Interval).
	SyncInterval
	// SyncBatch fsyncs on every Commit — one fsync per ingest batch.
	SyncBatch
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncOff:
		return "off"
	case SyncInterval:
		return "interval"
	case SyncBatch:
		return "batch"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy reads a policy name ("off", "interval", "batch").
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "off":
		return SyncOff, nil
	case "interval":
		return SyncInterval, nil
	case "batch", "":
		return SyncBatch, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want off, interval or batch)", s)
}

// Typed errors. Every malformed input maps onto one of these bases
// (wrapped with detail), never a panic.
var (
	// ErrCorrupt reports an invalid record in a sealed (non-last) segment
	// or a malformed segment chain — damage truncation cannot repair.
	ErrCorrupt = errors.New("wal: corrupt log")
	// ErrClosed reports an append to a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrNoSnapshot reports that no valid snapshot exists in the directory.
	ErrNoSnapshot = errors.New("wal: no snapshot")
)

// Segment geometry.
const (
	segMagic      = "MQWL"
	segVersion    = 1
	segHeaderLen  = 4 + 1 + 8
	recHeaderLen  = 8
	firstLSN      = 1        // LSN of the first record ever appended
	maxRecordSize = 64 << 20 // bounds one record's kind+payload bytes

	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// SegmentBytes zero.
	DefaultSegmentBytes = 64 << 20
	// DefaultInterval is the background flush/fsync tick when Options
	// leaves Interval zero.
	DefaultInterval = 100 * time.Millisecond
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one replayed log entry.
type Record struct {
	LSN  uint64
	Kind byte
	Data []byte // valid only for the duration of the replay callback
}

// Options configure Open.
type Options struct {
	// SegmentBytes is the rotation threshold (default DefaultSegmentBytes).
	SegmentBytes int64
	// Policy picks the fsync cadence. The zero value is SyncOff; servers
	// that want durability must set it explicitly.
	Policy SyncPolicy
	// Interval is the background flush tick; it fsyncs too under
	// SyncInterval (default DefaultInterval).
	Interval time.Duration
	// Failpoint, when non-nil, is consulted before every physical append
	// ("wal.append") and fsync ("wal.sync"); a returned error is treated
	// as the corresponding IO failure. Chaos-test hook.
	Failpoint func(op string) error
	// NoTick disables the background goroutine (tests drive Commit/Sync
	// explicitly).
	NoTick bool
}

type segInfo struct {
	first uint64 // LSN of the segment's first record
	path  string
}

// Log is an open write-ahead log. Safe for concurrent use.
type Log struct {
	dir string
	opt Options

	mu       sync.Mutex
	f        *os.File
	w        *bufWriter
	segs     []segInfo // ascending by first; last entry is the open segment
	segBytes int64     // bytes written to the open segment (header included)
	next     uint64    // next LSN to assign
	err      error     // sticky IO error; non-nil refuses appends
	closed   bool

	repairedBytes int64 // torn-tail bytes truncated by Open

	stopTick chan struct{}
	doneTick chan struct{}
}

// bufWriter is a minimal buffered writer (bufio.Writer semantics) that
// also tracks whether unflushed bytes exist, so ticks skip clean flushes.
type bufWriter struct {
	f   *os.File
	buf []byte
}

func (b *bufWriter) Write(p []byte) {
	b.buf = append(b.buf, p...)
}

func (b *bufWriter) Flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	if _, err := b.f.Write(b.buf); err != nil {
		return err
	}
	b.buf = b.buf[:0]
	if cap(b.buf) > 1<<20 {
		b.buf = nil
	}
	return nil
}

// Open opens (or creates) the log in dir, repairing a torn tail: the last
// segment is truncated back to its last valid record, while the same
// damage in an earlier segment returns ErrCorrupt. The returned log is
// positioned to append the next record.
func Open(dir string, opt Options) (*Log, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if opt.Interval <= 0 {
		opt.Interval = DefaultInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opt: opt, next: firstLSN}
	// Validate the chain: every sealed segment must be fully valid and its
	// record count must reach the next segment's first LSN.
	for i, seg := range segs {
		last := i == len(segs)-1
		n, goodBytes, scanErr := scanSegmentFile(seg.path, seg.first, nil)
		if scanErr != nil && !last {
			return nil, fmt.Errorf("%w: segment %s: %v", ErrCorrupt, filepath.Base(seg.path), scanErr)
		}
		if !last && seg.first+uint64(n) != segs[i+1].first {
			return nil, fmt.Errorf("%w: segment %s holds %d records but next segment starts at LSN %d",
				ErrCorrupt, filepath.Base(seg.path), n, segs[i+1].first)
		}
		if last {
			if scanErr != nil {
				// Torn tail: drop everything after the last valid record.
				st, statErr := os.Stat(seg.path)
				if statErr == nil {
					l.repairedBytes = st.Size() - goodBytes
				}
				if err := os.Truncate(seg.path, goodBytes); err != nil {
					return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", filepath.Base(seg.path), err)
				}
			}
			l.next = seg.first + uint64(n)
			l.segBytes = goodBytes
		}
	}
	l.segs = segs
	if len(segs) == 0 {
		if err := l.newSegmentLocked(firstLSN); err != nil {
			return nil, err
		}
	} else {
		cur := segs[len(segs)-1]
		f, err := os.OpenFile(cur.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if l.segBytes < segHeaderLen {
			// The torn tail ate into the header (or the file was empty):
			// rewrite it so the segment is self-describing again.
			if err := f.Truncate(0); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: %w", err)
			}
			if _, err := f.Write(segmentHeader(cur.first)); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: %w", err)
			}
			l.segBytes = segHeaderLen
			l.next = cur.first
		}
		l.f = f
		l.w = &bufWriter{f: f}
	}
	if !opt.NoTick {
		l.stopTick = make(chan struct{})
		l.doneTick = make(chan struct{})
		go l.tick()
	}
	return l, nil
}

// segmentHeader renders the 13-byte segment header.
func segmentHeader(first uint64) []byte {
	h := make([]byte, segHeaderLen)
	copy(h, segMagic)
	h[4] = segVersion
	binary.LittleEndian.PutUint64(h[5:], first)
	return h
}

// newSegmentLocked creates and opens a fresh segment starting at first.
func (l *Log) newSegmentLocked(first uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%016x.log", first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(segmentHeader(first)); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = &bufWriter{f: f}
	l.segs = append(l.segs, segInfo{first: first, path: path})
	l.segBytes = segHeaderLen
	return nil
}

// Append writes one record and returns its LSN. The record is buffered;
// call Commit at a batch boundary to make it kill-safe (and durable per
// the sync policy). Errors are sticky: after the first failure every
// Append returns it until the log is reopened.
func (l *Log) Append(kind byte, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	if len(payload)+1 > maxRecordSize {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds %d", len(payload)+1, maxRecordSize)
	}
	if fp := l.opt.Failpoint; fp != nil {
		if err := fp("wal.append"); err != nil {
			l.err = fmt.Errorf("wal: append: %w", err)
			return 0, l.err
		}
	}
	if l.segBytes >= l.opt.SegmentBytes && l.segBytes > segHeaderLen {
		if err := l.rotateLocked(); err != nil {
			l.err = err
			return 0, err
		}
	}
	var hdr [recHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)+1))
	crc := crc32.Update(crc32.Checksum([]byte{kind}, crcTable), crcTable, payload)
	binary.LittleEndian.PutUint32(hdr[4:], crc)
	l.w.Write(hdr[:])
	l.w.Write([]byte{kind})
	l.w.Write(payload)
	l.segBytes += int64(recHeaderLen + 1 + len(payload))
	lsn := l.next
	l.next++
	return lsn, nil
}

// rotateLocked seals the open segment and starts the next one.
func (l *Log) rotateLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	return l.newSegmentLocked(l.next)
}

// Rotate seals the open segment (if it holds any records) so a following
// Prune can reclaim it once a snapshot covers it.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if l.segBytes <= segHeaderLen {
		return nil
	}
	if err := l.rotateLocked(); err != nil {
		l.err = err
		return err
	}
	return nil
}

func (l *Log) flushLocked() error {
	if err := l.w.Flush(); err != nil {
		l.err = fmt.Errorf("wal: flush: %w", err)
		return l.err
	}
	return nil
}

// Commit makes every appended record kill-safe (flushed to the OS) and,
// under SyncBatch, durable (fsynced). Call it at batch boundaries.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	if l.opt.Policy == SyncBatch {
		return l.syncLocked()
	}
	return nil
}

// Sync flushes and fsyncs unconditionally, regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if fp := l.opt.Failpoint; fp != nil {
		if err := fp("wal.sync"); err != nil {
			l.err = fmt.Errorf("wal: sync: %w", err)
			return l.err
		}
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: sync: %w", err)
		return l.err
	}
	return nil
}

// tick is the background flush loop: it bounds how long records linger in
// the user-space buffer and drives the SyncInterval policy.
func (l *Log) tick() {
	defer close(l.doneTick)
	t := time.NewTicker(l.opt.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stopTick:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.err == nil {
				if err := l.flushLocked(); err == nil && l.opt.Policy == SyncInterval {
					_ = l.syncLocked()
				}
			}
			l.mu.Unlock()
		}
	}
}

// NextLSN reports the LSN the next Append will be assigned. NextLSN()-1 is
// the LSN a snapshot taken now covers.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Err reports the sticky IO error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// RepairedBytes reports how many torn-tail bytes Open truncated.
func (l *Log) RepairedBytes() int64 { return l.repairedBytes }

// Close flushes, fsyncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop := l.stopTick
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.doneTick
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var firstErr error
	if l.err == nil {
		if err := l.w.Flush(); err != nil {
			firstErr = err
		} else if err := l.f.Sync(); err != nil {
			firstErr = err
		}
	}
	if err := l.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Replay streams every record with LSN ≥ from through fn, in LSN order.
// The record's Data slice is only valid inside the callback. A torn tail
// in the last segment ends the replay cleanly (Open already truncates it;
// Replay tolerates it again for read-only callers); corruption anywhere
// else returns ErrCorrupt, as does a pruned log whose oldest surviving
// record is newer than from (the suffix would have a silent hole). fn
// errors abort the replay and are returned as-is, torn tail or not.
func (l *Log) Replay(from uint64, fn func(Record) error) error {
	l.mu.Lock()
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	segs := make([]segInfo, len(l.segs))
	copy(segs, l.segs)
	l.mu.Unlock()
	return replaySegments(segs, from, fn)
}

// callbackError tags an error returned by the caller's replay callback,
// so replaySegments can tell "fn rejected a record" apart from "the
// segment frame is damaged" — only the latter is a tolerable torn tail.
type callbackError struct{ err error }

func (e *callbackError) Error() string { return e.err.Error() }
func (e *callbackError) Unwrap() error { return e.err }

func replaySegments(segs []segInfo, from uint64, fn func(Record) error) error {
	if from < firstLSN {
		from = firstLSN
	}
	// Gap detection: replaying a suffix whose first records were pruned
	// away would silently skip history; refuse instead. (A from past the
	// end of the log is fine — there is simply nothing to replay yet.)
	if len(segs) > 0 && segs[0].first > from {
		return fmt.Errorf("%w: replay from LSN %d but the oldest segment starts at LSN %d",
			ErrCorrupt, from, segs[0].first)
	}
	for i, seg := range segs {
		last := i == len(segs)-1
		// Skip segments that end before the requested suffix.
		if !last && segs[i+1].first <= from {
			continue
		}
		_, _, err := scanSegmentFile(seg.path, seg.first, func(lsn uint64, kind byte, data []byte) error {
			if lsn < from {
				return nil
			}
			return fn(Record{LSN: lsn, Kind: kind, Data: data})
		})
		if err != nil {
			var cb *callbackError
			if errors.As(err, &cb) {
				// fn aborted the replay: a real failure regardless of which
				// segment it landed in, never a repairable torn tail.
				return cb.err
			}
			if last {
				return nil // torn tail: the valid prefix was replayed
			}
			return fmt.Errorf("%w: segment %s: %v", ErrCorrupt, filepath.Base(seg.path), err)
		}
	}
	return nil
}

// Prune removes sealed segments every record of which has LSN ≤ upTo —
// the retention step after a snapshot at upTo. The open segment is never
// removed.
func (l *Log) Prune(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.segs[:0]
	for i, seg := range l.segs {
		if i < len(l.segs)-1 && l.segs[i+1].first-1 <= upTo {
			if err := os.Remove(seg.path); err != nil {
				// Retention is best effort; keep the bookkeeping coherent.
				kept = append(kept, seg)
			}
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	return nil
}

// Segments reports the current segment file count (retention visibility).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// listSegments finds and orders the wal-*.log files of dir.
func listSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segInfo
	for _, e := range ents {
		name := e.Name()
		var first uint64
		if _, err := fmt.Sscanf(name, "wal-%016x.log", &first); err != nil || !e.Type().IsRegular() {
			continue
		}
		segs = append(segs, segInfo{first: first, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	for i := 1; i < len(segs); i++ {
		if segs[i].first <= segs[i-1].first {
			return nil, fmt.Errorf("%w: duplicate segment start LSN %d", ErrCorrupt, segs[i].first)
		}
	}
	return segs, nil
}

// scanSegmentFile walks one segment's records, calling fn (when non-nil)
// per record. It returns the record count and the byte offset just past
// the last valid record. A framing violation (short header, absurd length,
// CRC mismatch, truncated payload) is returned as a non-nil error with the
// valid prefix already delivered — the caller decides between truncating
// (last segment) and failing (sealed segment). An error from fn is wrapped
// in callbackError so callers can tell it apart from frame damage.
func scanSegmentFile(path string, wantFirst uint64, fn func(lsn uint64, kind byte, data []byte) error) (n int, goodBytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("short segment header: %w", err)
	}
	if string(hdr[:4]) != segMagic {
		return 0, 0, fmt.Errorf("bad segment magic %q", hdr[:4])
	}
	if hdr[4] != segVersion {
		return 0, 0, fmt.Errorf("unsupported segment version %d", hdr[4])
	}
	if first := binary.LittleEndian.Uint64(hdr[5:]); first != wantFirst {
		return 0, 0, fmt.Errorf("segment header LSN %d does not match filename LSN %d", first, wantFirst)
	}
	goodBytes = segHeaderLen
	var rechdr [recHeaderLen]byte
	var buf []byte
	lsn := wantFirst
	for {
		if _, err := io.ReadFull(f, rechdr[:]); err != nil {
			if err == io.EOF {
				return n, goodBytes, nil // clean end
			}
			return n, goodBytes, fmt.Errorf("torn record header at offset %d", goodBytes)
		}
		size := binary.LittleEndian.Uint32(rechdr[0:])
		if size == 0 || size > maxRecordSize {
			return n, goodBytes, fmt.Errorf("absurd record size %d at offset %d", size, goodBytes)
		}
		if cap(buf) < int(size) {
			buf = make([]byte, size)
		}
		buf = buf[:size]
		if _, err := io.ReadFull(f, buf); err != nil {
			return n, goodBytes, fmt.Errorf("torn record payload at offset %d", goodBytes)
		}
		if crc := crc32.Checksum(buf, crcTable); crc != binary.LittleEndian.Uint32(rechdr[4:]) {
			return n, goodBytes, fmt.Errorf("record CRC mismatch at offset %d", goodBytes)
		}
		if fn != nil {
			if err := fn(lsn, buf[0], buf[1:]); err != nil {
				return n, goodBytes, &callbackError{err}
			}
		}
		lsn++
		n++
		goodBytes += int64(recHeaderLen) + int64(size)
	}
}
