package main

import (
	"fmt"
	"io"
	"sync"
	"syscall"
)

// ramDevice is an in-memory storage.Device that stands in for a file on
// tmpfs. A write or a sync costs a memory copy rather than a disk flush,
// so durable-commit times the WAL path (record encode, append, sync
// calls, checkpoints) without the shared disk's fsync variance. Its
// bytes live in an anonymous mapping outside the Go heap, as a file's
// would: the snapshot store grows by a snapshot every checkpoint, and
// in the heap that growth would stretch the collector's pacing as a run
// goes on.
//
// It tracks how much of the device a sync has hardened. The WAL and the
// snapshot store append at the tail and only truncate behind it, so a
// crash keeps exactly the synced prefix, and a write into that prefix
// is refused rather than modelled.
type ramDevice struct {
	mu     sync.Mutex
	buf    []byte // the mapping; its length is the capacity
	size   int
	synced int
}

// reserve makes the mapping hold at least n bytes, doubling it.
func (d *ramDevice) reserve(n int) error {
	if n <= len(d.buf) {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, max(n, 2*len(d.buf), 1<<20), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return fmt.Errorf("ramDevice: %w", err)
	}
	copy(b, d.buf[:d.size])
	d.free()
	d.buf = b
	return nil
}

// free unmaps the device's memory; the device must not be used after.
func (d *ramDevice) free() {
	if d.buf != nil {
		syscall.Munmap(d.buf)
		d.buf = nil
	}
}

func (d *ramDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("ramDevice: negative offset %d", off)
	}
	if off >= int64(d.size) {
		return 0, io.EOF
	}
	n := copy(p, d.buf[off:d.size])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (d *ramDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < int64(d.synced) {
		return 0, fmt.Errorf("ramDevice: write at %d inside the synced prefix of %d bytes", off, d.synced)
	}
	end := int(off) + len(p)
	if err := d.reserve(end); err != nil {
		return 0, err
	}
	if int(off) > d.size {
		clear(d.buf[d.size:off])
	}
	copy(d.buf[off:end], p)
	d.size = max(d.size, end)
	return len(p), nil
}

func (d *ramDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.synced = d.size
	return nil
}

// Truncate resizes the device; like a file's truncate it is a metadata
// change that takes effect at once.
func (d *ramDevice) Truncate(size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("ramDevice: negative size %d", size)
	}
	if err := d.reserve(int(size)); err != nil {
		return err
	}
	if int(size) > d.size {
		clear(d.buf[d.size:size])
	}
	d.size = int(size)
	d.synced = min(d.synced, d.size)
	return nil
}

func (d *ramDevice) Size() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(d.size), nil
}

// crashImage is the device as a crash would leave it: a copy of the
// synced prefix, all of it durable.
func (d *ramDevice) crashImage() (*ramDevice, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	img := &ramDevice{}
	if err := img.reserve(d.synced); err != nil {
		return nil, err
	}
	copy(img.buf, d.buf[:d.synced])
	img.size, img.synced = d.synced, d.synced
	return img, nil
}
