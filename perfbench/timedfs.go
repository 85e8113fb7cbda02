package main

import (
	"os"
	"path/filepath"
	"strings"

	"paxoscp/internal/kvstore/disk"
)

// timedFS is a disk.FS that records a span for every file write and fsync
// the engine performs, keyed by datacenter, and counts the bytes written
// to WAL segments. It passes every operation through to the FS it wraps.
type timedFS struct {
	disk.FS
	t  *tracer
	dc string
}

func (fs timedFS) wrap(f disk.File, err error) (disk.File, error) {
	if err != nil {
		return f, err
	}
	return timedFile{File: f, fs: fs, wal: strings.HasPrefix(filepath.Base(f.Name()), "wal-")}, nil
}

func (fs timedFS) OpenFile(name string, flag int, perm os.FileMode) (disk.File, error) {
	return fs.wrap(fs.FS.OpenFile(name, flag, perm))
}

func (fs timedFS) CreateTemp(dir, pattern string) (disk.File, error) {
	return fs.wrap(fs.FS.CreateTemp(dir, pattern))
}

type timedFile struct {
	disk.File
	fs  timedFS
	wal bool // a WAL segment, as opposed to a snapshot or directory
}

func (f timedFile) Write(p []byte) (int, error) {
	id, start := f.fs.t.begin()
	n, err := f.File.Write(p)
	f.fs.t.end(id, 0, start, spFSWrite, f.kind(), f.fs.dc)
	if f.wal {
		f.fs.t.walBytes.Add(int64(n))
	}
	return n, err
}

func (f timedFile) Sync() error {
	id, start := f.fs.t.begin()
	err := f.File.Sync()
	f.fs.t.end(id, 0, start, spFSSync, f.kind(), f.fs.dc)
	return err
}

// Filesystem spans carry fsWAL as their kind for WAL-segment I/O (the
// commit path) and fsOther for snapshots and directories.
const (
	fsOther uint8 = iota
	fsWAL
)

func (f timedFile) kind() uint8 {
	if f.wal {
		return fsWAL
	}
	return fsOther
}

// noFlushFS is the real filesystem with every fsync elided: the engine
// still writes its WAL and snapshot files and runs its group-commit and
// recovery logic, but never waits for the device.
type noFlushFS struct{ disk.FS }

func (fs noFlushFS) OpenFile(name string, flag int, perm os.FileMode) (disk.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return f, err
	}
	return noFlushFile{f}, nil
}

func (fs noFlushFS) CreateTemp(dir, pattern string) (disk.File, error) {
	f, err := fs.FS.CreateTemp(dir, pattern)
	if err != nil {
		return f, err
	}
	return noFlushFile{f}, nil
}

type noFlushFile struct{ disk.File }

func (noFlushFile) Sync() error { return nil }
