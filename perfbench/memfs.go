package main

import (
	"io"
	"io/fs"
	"time"

	"aquavol/internal/vfs"
)

// memFS is an in-memory vfs.FS for the execute workload's journals, so
// the benchmark times journal encoding and snapshotting rather than the
// host's disk. It holds whole files as byte slices; Sync and SyncDir
// succeed at once.
type memFS struct {
	files map[string]*memData
}

type memData struct{ b []byte }

func newMemFS() *memFS { return &memFS{files: map[string]*memData{}} }

func (m *memFS) Create(name string) (vfs.File, error) {
	d := &memData{}
	m.files[name] = d
	return &memFile{name: name, d: d}, nil
}

func (m *memFS) OpenReadWrite(name string) (vfs.File, error) { return m.Open(name) }

func (m *memFS) Open(name string) (vfs.File, error) {
	d, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &memFile{name: name, d: d}, nil
}

func (m *memFS) Rename(oldname, newname string) error {
	d, ok := m.files[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(m.files, oldname)
	m.files[newname] = d
	return nil
}

func (m *memFS) Remove(name string) error {
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) Stat(name string) (fs.FileInfo, error) {
	d, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
	}
	return memInfo{name: name, size: int64(len(d.b))}, nil
}

func (m *memFS) SyncDir(string) error { return nil }

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
	if gap := f.off - int64(len(f.d.b)); gap > 0 {
		f.d.b = append(f.d.b, make([]byte, gap)...)
	}
	n := copy(f.d.b[f.off:], p)
	f.d.b = append(f.d.b, p[n:]...)
	f.off += int64(len(p))
	return len(p), nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		offset += int64(len(f.d.b))
	}
	if offset < 0 {
		return 0, &fs.PathError{Op: "seek", Path: f.name, Err: fs.ErrInvalid}
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
