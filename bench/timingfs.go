package main

import (
	"io/fs"
	"sync/atomic"
	"time"

	"unprotected/internal/iofault"
)

// ioCounters accumulate what the storage layers asked of the filesystem.
type ioCounters struct {
	readNs, writeNs, syncNs, renameNs atomic.Int64
	readBytes, writeBytes, syncs      atomic.Int64
}

// timingFS is an iofault.FS that times every read, write, sync and rename
// it forwards to the OS — the seam every storage layer already accepts.
type timingFS struct {
	c *ioCounters
}

var _ iofault.FS = timingFS{}

func since(start time.Time) int64 { return int64(time.Since(start)) }

func (t timingFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	data, err := iofault.OS.ReadFile(name)
	t.c.readNs.Add(since(start))
	t.c.readBytes.Add(int64(len(data)))
	return data, err
}

func (t timingFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	start := time.Now()
	err := iofault.OS.WriteFile(name, data, perm)
	t.c.writeNs.Add(since(start))
	t.c.writeBytes.Add(int64(len(data)))
	return err
}

func (t timingFS) Open(name string) (iofault.File, error) {
	f, err := iofault.OS.Open(name)
	if err != nil {
		return nil, err
	}
	return timingFile{f, t.c}, nil
}

func (t timingFS) OpenFile(name string, flag int, perm fs.FileMode) (iofault.File, error) {
	f, err := iofault.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timingFile{f, t.c}, nil
}

func (t timingFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := iofault.OS.Rename(oldpath, newpath)
	t.c.renameNs.Add(since(start))
	return err
}

func (t timingFS) Remove(name string) error { return iofault.OS.Remove(name) }

func (t timingFS) MkdirAll(path string, perm fs.FileMode) error {
	return iofault.OS.MkdirAll(path, perm)
}

func (t timingFS) ReadDir(name string) ([]fs.DirEntry, error) { return iofault.OS.ReadDir(name) }

func (t timingFS) Stat(name string) (fs.FileInfo, error) { return iofault.OS.Stat(name) }

func (t timingFS) Sync(name string) error {
	start := time.Now()
	err := iofault.OS.Sync(name)
	t.c.syncNs.Add(since(start))
	t.c.syncs.Add(1)
	return err
}

// timingFile times the reads, writes and syncs of one open file.
type timingFile struct {
	iofault.File
	c *ioCounters
}

func (f timingFile) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Read(p)
	f.c.readNs.Add(since(start))
	f.c.readBytes.Add(int64(n))
	return n, err
}

func (f timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.c.writeNs.Add(since(start))
	f.c.writeBytes.Add(int64(n))
	return n, err
}

func (f timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.c.syncNs.Add(since(start))
	f.c.syncs.Add(1)
	return err
}

// metrics reports the totals as per-layer metrics.
func (c *ioCounters) metrics() []metric {
	sec := func(ns *atomic.Int64) float64 { return float64(ns.Load()) / 1e9 }
	return []metric{
		{Name: "iofault.read_s", Unit: "s", Value: sec(&c.readNs), Better: "lower", Kind: "layer"},
		{Name: "iofault.write_s", Unit: "s", Value: sec(&c.writeNs), Better: "lower", Kind: "layer"},
		{Name: "iofault.sync_s", Unit: "s", Value: sec(&c.syncNs), Better: "lower", Kind: "layer"},
		{Name: "iofault.rename_s", Unit: "s", Value: sec(&c.renameNs), Better: "lower", Kind: "layer"},
		{Name: "iofault.read_mb", Unit: "MB", Value: float64(c.readBytes.Load()) / 1e6, Better: "lower", Kind: "layer"},
		{Name: "iofault.write_mb", Unit: "MB", Value: float64(c.writeBytes.Load()) / 1e6, Better: "lower", Kind: "layer"},
		{Name: "iofault.syncs", Unit: "count", Value: float64(c.syncs.Load()), Better: "lower", Kind: "layer"},
	}
}
