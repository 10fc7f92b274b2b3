package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"aquavol/internal/vfs"
)

// Reader decodes a journal stream, stopping at the first bad frame. It
// never panics on arbitrary input: every malformed byte sequence maps to
// ErrTornWrite (file ends mid-frame) or ErrCorrupt (complete but
// invalid frame).
type Reader struct {
	r          io.Reader
	headerDone bool
	// good is the offset just past the last fully-decoded record (the
	// truncation point for append-after-crash).
	good int64
	// read is the offset consumed so far.
	read int64
	err  error
	// buf holds the payload being decoded, reused across records.
	buf []byte
}

// NewReader starts decoding from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// GoodBytes returns the offset just past the last successfully decoded
// record (including the file header). A crashed journal is truncated
// here before appending resumes.
func (jr *Reader) GoodBytes() int64 { return jr.good }

// Next returns the next record. io.EOF marks a clean end; ErrTornWrite
// and ErrCorrupt (wrapped with context) mark a recoverable bad tail. All
// errors are sticky.
func (jr *Reader) Next() (*Record, error) {
	if jr.err != nil {
		return nil, jr.err
	}
	rec, err := jr.next()
	if err != nil {
		jr.err = err
		return nil, err
	}
	jr.good = jr.read
	return rec, nil
}

func (jr *Reader) next() (*Record, error) {
	if !jr.headerDone {
		var hdr [len(magic)]byte
		n, err := io.ReadFull(jr.r, hdr[:])
		jr.read += int64(n)
		switch {
		case err == io.EOF && n == 0:
			return nil, fmt.Errorf("%w: empty journal (no header)", ErrTornWrite)
		case err != nil && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)):
			return nil, fmt.Errorf("%w: short header (%d of %d bytes)", ErrTornWrite, n, len(magic))
		case err != nil:
			return nil, fmt.Errorf("journal: reading header: %w", err)
		case string(hdr[:]) == magicV1:
			return nil, ErrVersion
		case string(hdr[:]) != magic:
			return nil, fmt.Errorf("%w: bad header %q (not a journal, or unsupported version)", ErrCorrupt, hdr)
		}
		jr.headerDone = true
		jr.good = jr.read
	}
	var frame [8]byte
	n, err := io.ReadFull(jr.r, frame[:])
	jr.read += int64(n)
	switch {
	case err == io.EOF && n == 0:
		return nil, io.EOF // clean end at a record boundary
	case err != nil && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)):
		return nil, fmt.Errorf("%w: short frame header at offset %d (%d of 8 bytes)", ErrTornWrite, jr.good, n)
	case err != nil:
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	length := binary.LittleEndian.Uint32(frame[0:4])
	sum := binary.LittleEndian.Uint32(frame[4:8])
	if length > maxRecord {
		return nil, fmt.Errorf("%w: frame at offset %d claims %d-byte payload (limit %d)", ErrCorrupt, jr.good, length, maxRecord)
	}
	jr.buf = slices.Grow(jr.buf[:0], int(length))
	payload := jr.buf[:length]
	n, err = io.ReadFull(jr.r, payload)
	jr.read += int64(n)
	switch {
	case err != nil && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)):
		return nil, fmt.Errorf("%w: payload at offset %d truncated (%d of %d bytes)", ErrTornWrite, jr.good, n, length)
	case err != nil:
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: CRC mismatch at offset %d (stored %08x, computed %08x)", ErrCorrupt, jr.good, sum, got)
	}
	rec, err := decode(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: undecodable payload at offset %d: %w", ErrCorrupt, jr.good, err)
	}
	if err := rec.validate(); err != nil {
		return nil, fmt.Errorf("%w (at offset %d)", err, jr.good)
	}
	return rec, nil
}

// ReadAll decodes every record up to the first bad frame. The returned
// error is nil for a clean journal, or the terminal ErrTornWrite /
// ErrCorrupt-wrapped condition; the good prefix is returned either way.
// It is Recover's salvage with the truncated tail as the error.
func ReadAll(r io.Reader) ([]*Record, error) {
	recs, tail, err := recoverFrom(r)
	if err == nil {
		err = tail.Reason
	}
	return recs, err
}

// Tail describes how a journal read-back ended.
type Tail struct {
	// Truncated reports whether a bad tail was dropped.
	Truncated bool
	// Reason is the terminal condition (wraps ErrTornWrite or ErrCorrupt;
	// nil when the journal was clean).
	Reason error
	// GoodBytes is the offset just past the last good record.
	GoodBytes int64
}

// Recover reads a journal file, salvaging the good prefix. Unlike
// ReadAll's error, a bad tail is not an error here — it is the expected
// state of a crashed run's journal — so err is non-nil only when the
// file cannot be read at all.
func Recover(fsys vfs.FS, path string) ([]*Record, Tail, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, Tail{}, fmt.Errorf("journal: %w", err)
	}
	defer f.Close() //fluidvet:allow syncerr read-only open; no buffered writes can be lost
	return recoverFrom(f)
}

func recoverFrom(r io.Reader) ([]*Record, Tail, error) {
	jr := NewReader(r)
	var recs []*Record
	for {
		rec, err := jr.Next()
		if err == io.EOF {
			return recs, Tail{GoodBytes: jr.GoodBytes()}, nil
		}
		if errors.Is(err, ErrTornWrite) || errors.Is(err, ErrCorrupt) {
			return recs, Tail{Truncated: true, Reason: err, GoodBytes: jr.GoodBytes()}, nil
		}
		if err != nil {
			return recs, Tail{GoodBytes: jr.GoodBytes()}, err
		}
		recs = append(recs, rec)
	}
}

// OpenAppend reopens a journal for resumption: it salvages the good
// prefix, truncates any bad tail, and returns a Writer positioned to
// append after the last good record. The caller owns closing the file.
func OpenAppend(fsys vfs.FS, path string) ([]*Record, Tail, *Writer, vfs.File, error) {
	f, err := fsys.OpenReadWrite(path)
	if err != nil {
		return nil, Tail{}, nil, nil, fmt.Errorf("journal: %w", err)
	}
	recs, tail, err := recoverFrom(f)
	if err != nil {
		f.Close() //fluidvet:allow syncerr error path; the read failure being returned supersedes any close error
		return nil, Tail{}, nil, nil, err
	}
	if len(recs) == 0 {
		f.Close() //fluidvet:allow syncerr error path; nothing was written, the salvage failure is the error

		reason := tail.Reason
		switch {
		case errors.Is(reason, ErrVersion):
			return nil, tail, nil, nil, fmt.Errorf("%s: %w", path, reason)
		case reason == nil:
			reason = fmt.Errorf("%w: no records", ErrTornWrite)
		}
		return nil, tail, nil, nil, fmt.Errorf("journal: nothing salvageable in %s: %w", path, reason)
	}
	if err := f.Truncate(tail.GoodBytes); err != nil {
		f.Close() //fluidvet:allow syncerr error path; the truncate failure being returned supersedes any close error

		return nil, Tail{}, nil, nil, fmt.Errorf("journal: truncating bad tail: %w", err)
	}
	if _, err := f.Seek(tail.GoodBytes, io.SeekStart); err != nil {
		f.Close() //fluidvet:allow syncerr error path; the seek failure being returned supersedes any close error

		return nil, Tail{}, nil, nil, fmt.Errorf("journal: %w", err)
	}
	jw := &Writer{w: f, sync: f.Sync}
	return recs, tail, jw, f, nil
}
