package fault

import (
	"io/fs"
	"os"
)

// File is the slice of *os.File the WAL needs: sequential writes, fsync,
// and tail truncation. Injected faults surface through these methods.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Truncate(size int64) error
	Name() string
}

// FS is the filesystem seam the write-ahead log routes every file
// operation through. The default implementation (OS) forwards straight to
// package os; NewFS wraps it with a fault schedule.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	Stat(name string) (fs.FileInfo, error)
	Remove(name string) error
	Rename(oldpath, newpath string) error
	Truncate(name string, size int64) error
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// SyncDir fsyncs the directory name, making the entries created or
	// renamed in it durable.
	SyncDir(name string) error
}

// OS is the passthrough filesystem: every call forwards to package os.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Operation keys the FS wrapper consults on the schedule. Write, sync,
// and rename are the durability-critical ones; the read-side keys exist
// so recovery paths can be faulted too.
const (
	OpWALOpen     = "wal.open"
	OpWALWrite    = "wal.write"
	OpWALSync     = "wal.sync"
	OpWALRename   = "wal.rename"
	OpWALRemove   = "wal.remove"
	OpWALTruncate = "wal.truncate"
	OpWALMkdir    = "wal.mkdir"
	OpWALReadFile = "wal.readfile"
	OpWALReadDir  = "wal.readdir"
	OpWALStat     = "wal.stat"
	OpWALSyncDir  = "wal.syncdir"
)

// NewFS wraps base so every operation first consults sched. A nil
// schedule (or nil base, which defaults to OS) yields passthrough
// behavior.
func NewFS(base FS, sched *Schedule) FS {
	if base == nil {
		base = OS
	}
	if sched == nil {
		return base
	}
	return &faultFS{base: base, s: sched}
}

type faultFS struct {
	base FS
	s    *Schedule
}

// check runs the schedule for op and returns the injected error, if any,
// after applying any delay.
func (f *faultFS) check(op string) error {
	act := f.s.Next(op)
	if act == nil {
		return nil
	}
	if act.Delay > 0 {
		sleep(act.Delay)
	}
	return act.Err
}

func (f *faultFS) MkdirAll(path string, perm os.FileMode) error {
	if err := f.check(OpWALMkdir); err != nil {
		return &os.PathError{Op: "mkdir", Path: path, Err: err}
	}
	return f.base.MkdirAll(path, perm)
}

func (f *faultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := f.check(OpWALReadDir); err != nil {
		return nil, &os.PathError{Op: "readdir", Path: name, Err: err}
	}
	return f.base.ReadDir(name)
}

func (f *faultFS) ReadFile(name string) ([]byte, error) {
	if err := f.check(OpWALReadFile); err != nil {
		return nil, &os.PathError{Op: "read", Path: name, Err: err}
	}
	return f.base.ReadFile(name)
}

func (f *faultFS) Stat(name string) (fs.FileInfo, error) {
	if err := f.check(OpWALStat); err != nil {
		return nil, &os.PathError{Op: "stat", Path: name, Err: err}
	}
	return f.base.Stat(name)
}

func (f *faultFS) Remove(name string) error {
	if err := f.check(OpWALRemove); err != nil {
		return &os.PathError{Op: "remove", Path: name, Err: err}
	}
	return f.base.Remove(name)
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if err := f.check(OpWALRename); err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *faultFS) Truncate(name string, size int64) error {
	if err := f.check(OpWALTruncate); err != nil {
		return &os.PathError{Op: "truncate", Path: name, Err: err}
	}
	return f.base.Truncate(name, size)
}

func (f *faultFS) SyncDir(name string) error {
	if err := f.check(OpWALSyncDir); err != nil {
		return &os.PathError{Op: "syncdir", Path: name, Err: err}
	}
	return f.base.SyncDir(name)
}

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err := f.check(OpWALOpen); err != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	file, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, s: f.s}, nil
}

// faultFile injects write and sync faults on an open file. Short writes
// land act.Short bytes before surfacing the error, which is how the tests
// produce torn records at exact byte offsets.
type faultFile struct {
	File
	s *Schedule
}

func (f *faultFile) Write(p []byte) (int, error) {
	act := f.s.Next(OpWALWrite)
	if act == nil {
		return f.File.Write(p)
	}
	if act.Delay > 0 {
		sleep(act.Delay)
	}
	if act.Err == nil {
		return f.File.Write(p)
	}
	n := 0
	if act.Short > 0 {
		short := act.Short
		if short > len(p) {
			short = len(p)
		}
		var werr error
		n, werr = f.File.Write(p[:short])
		if werr != nil {
			return n, werr
		}
	}
	return n, &os.PathError{Op: "write", Path: f.Name(), Err: act.Err}
}

func (f *faultFile) Sync() error {
	act := f.s.Next(OpWALSync)
	if act == nil {
		return f.File.Sync()
	}
	if act.Delay > 0 {
		sleep(act.Delay)
	}
	if act.Err != nil {
		return &os.PathError{Op: "sync", Path: f.Name(), Err: act.Err}
	}
	return f.File.Sync()
}
