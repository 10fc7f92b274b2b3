package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"aquavol/internal/vfs"
)

// magic is the journal file header. The trailing newline makes a
// truncated-at-byte-0..7 file distinguishable from a text file at a
// glance; the version digit gates future format changes.
const magic = "AQJRNL1\n"

// HeaderSize is the on-disk size of a complete empty journal (the header
// alone): what an interrupted-but-atomic creation may leave behind.
const HeaderSize = int64(len(magic))

// maxRecord bounds one record's payload (16 MiB). Snapshots of real
// assays are kilobytes; the bound exists so a corrupt length prefix
// cannot make the reader allocate gigabytes.
const maxRecord = 16 << 20

// ErrExists is returned by Create when the target is an existing
// non-empty file: a journal is a run's only crash evidence, and
// truncating one by accident destroys exactly the state a resume needs.
// Callers that really mean it pass force (fluidvm -force-journal).
var ErrExists = errors.New("journal: refusing to clobber existing non-empty journal")

// syncer is the optional flush capability of a Writer's sink. Both
// *os.File and vfs.File provide it; in-memory test buffers do not.
type syncer interface{ Sync() error }

// Writer appends framed records to a journal. It is not safe for
// concurrent use; one run owns its journal.
//
// The writer is fail-stop: the first failed write or fsync permanently
// poisons it, and every later Append returns the same error without
// touching the sink. This is deliberate — after a failed fsync the OS
// may have dropped the unflushed pages, so retrying the fsync (or
// appending past the failure) can silently persist a journal with a
// hole in it. The only safe continuation is a new journal.
type Writer struct {
	w io.Writer
	// sync is called after every append when the sink supports it: a
	// write-ahead log that lingers in page cache does not survive the
	// crashes it exists for.
	sync func() error
	err  error
	// enc encodes every record this writer appends, into one reused
	// buffer, with the last snapshot's event log and patch overlay
	// cached.
	enc encoder
}

// NewWriter starts a journal on w, writing the file header immediately.
func NewWriter(w io.Writer) (*Writer, error) {
	jw := &Writer{w: w}
	if s, ok := w.(syncer); ok {
		jw.sync = s.Sync
	}
	if _, err := io.WriteString(w, magic); err != nil {
		return nil, fmt.Errorf("journal: writing header: %w", err)
	}
	return jw, nil
}

// Create creates a journal file atomically and durably: the header is
// written to a temp file, synced, renamed into place, and the parent
// directory synced — so a crash during creation leaves either no journal
// or a complete empty one, never a half-written header, and the new name
// itself survives the crash. An existing non-empty file at path is
// refused with ErrExists unless force is set (see fluidvm
// -force-journal); an existing empty file — a previous creation that
// died between rename and first append — is always safe to replace.
//
// The returned file is positioned after the header, ready for Append;
// the caller owns closing it.
func Create(fsys vfs.FS, path string, force bool) (*Writer, vfs.File, error) {
	if st, err := fsys.Stat(path); err == nil && st.Size() > 0 && !force {
		return nil, nil, fmt.Errorf("%w: %s (%d bytes)", ErrExists, path, st.Size())
	}
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	// On any failure, abandon the temp file: creation either completes in
	// full or leaves nothing at path.
	cleanup := func() {
		f.Close()        //fluidvet:allow syncerr error path; the creation failure being returned supersedes any close error
		fsys.Remove(tmp) //fluidvet:allow syncerr best-effort cleanup of the abandoned temp file
	}
	jw, err := NewWriter(f)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return nil, nil, fmt.Errorf("journal: syncing header: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		cleanup()
		return nil, nil, fmt.Errorf("journal: installing %s: %w", path, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		f.Close() //fluidvet:allow syncerr error path; the directory-sync failure being returned supersedes any close error
		return nil, nil, fmt.Errorf("journal: syncing parent directory of %s: %w", path, err)
	}
	return jw, f, nil
}

// Append frames and writes one record. The first sink error is sticky
// (see the fail-stop note on Writer): once an append or its fsync fails
// the journal is no longer a faithful log, no further bytes are written,
// and every subsequent call reports the same failure.
func (jw *Writer) Append(rec *Record) error {
	if jw.err != nil {
		return jw.err
	}
	if err := rec.validate(); err != nil {
		return err // caller bug, not a sink failure: not sticky
	}
	payload, err := jw.enc.record(rec)
	if err != nil {
		return fmt.Errorf("journal: encoding %s record: %w", rec.Kind, err)
	}
	if len(payload) > maxRecord {
		return fmt.Errorf("journal: %s record payload %d bytes exceeds limit %d", rec.Kind, len(payload), maxRecord)
	}
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	if _, err := jw.w.Write(frame[:]); err == nil {
		_, err = jw.w.Write(payload)
		if err == nil && jw.sync != nil {
			err = jw.sync()
		}
		if err != nil {
			jw.err = fmt.Errorf("journal: append: %w", err)
		}
	} else {
		jw.err = fmt.Errorf("journal: append: %w", err)
	}
	return jw.err
}

// Err returns the sticky write error, if any.
func (jw *Writer) Err() error { return jw.err }
