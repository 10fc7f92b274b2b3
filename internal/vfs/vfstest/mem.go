// Package vfstest holds an in-memory vfs.FS for tests that run
// hundreds of journaled runs.
package vfstest

import (
	"io"
	"io/fs"
	"time"

	"aquavol/internal/vfs"
)

// MemFS is an in-memory vfs.FS: whole files are byte slices, and Sync
// and SyncDir succeed at once, so a test pays for encoding rather than
// fsync. It is not safe for concurrent use.
type MemFS struct{ files map[string]*memData }

type memData struct{ b []byte }

// NewMemFS returns an empty MemFS.
func NewMemFS() *MemFS { return &MemFS{files: map[string]*memData{}} }

// Bytes returns the named file's contents, nil when there is no such
// file. The slice is the file's own: it changes as the file does.
func (m *MemFS) Bytes(name string) []byte {
	if d, ok := m.files[name]; ok {
		return d.b
	}
	return nil
}

func (m *MemFS) Create(name string) (vfs.File, error) {
	d := &memData{}
	m.files[name] = d
	return &memFile{name: name, d: d}, nil
}

func (m *MemFS) OpenReadWrite(name string) (vfs.File, error) { return m.Open(name) }

func (m *MemFS) Open(name string) (vfs.File, error) {
	d, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &memFile{name: name, d: d}, nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	d, ok := m.files[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(m.files, oldname)
	m.files[newname] = d
	return nil
}

func (m *MemFS) Remove(name string) error {
	delete(m.files, name)
	return nil
}

func (m *MemFS) Stat(name string) (fs.FileInfo, error) {
	d, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
	}
	return memInfo{name: name, size: int64(len(d.b))}, nil
}

func (m *MemFS) SyncDir(string) error { return nil }

type memFile struct {
	name string
	d    *memData
	off  int64
}

func (f *memFile) Read(p []byte) (int, error) {
	if f.off >= int64(len(f.d.b)) {
		return 0, io.EOF
	}
	n := copy(p, f.d.b[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.off == int64(len(f.d.b)) {
		f.d.b = append(f.d.b, p...)
		f.off += int64(len(p))
		return len(p), nil
	}
	if end := f.off + int64(len(p)); end > int64(len(f.d.b)) {
		f.d.b = append(f.d.b, make([]byte, end-int64(len(f.d.b)))...)
	}
	n := copy(f.d.b[f.off:], p)
	f.off += int64(n)
	return n, nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		offset += int64(len(f.d.b))
	}
	f.off = offset
	return offset, nil
}

func (f *memFile) Truncate(size int64) error {
	if size < int64(len(f.d.b)) {
		f.d.b = f.d.b[:size]
	}
	return nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }
func (f *memFile) Name() string { return f.name }

type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() fs.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }
