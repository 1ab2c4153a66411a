package main

import (
	"errors"
	"io"
	"testing"

	"viewmat/internal/wal"
)

func TestRAMDeviceCrashKeepsSyncedRecords(t *testing.T) {
	d := &ramDevice{}
	defer d.free()
	l, err := wal.OpenLog(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"one", "two"} {
		if err := l.AppendSync([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Append([]byte("unsynced")); err != nil {
		t.Fatal(err)
	}
	img, err := d.crashImage()
	if err != nil {
		t.Fatal(err)
	}
	defer img.free()
	r, err := wal.NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		p, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(p))
	}
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Errorf("recovered %q, want the two synced records", got)
	}
}

func TestRAMDeviceRefusesWritesIntoSyncedPrefix(t *testing.T) {
	d := &ramDevice{}
	defer d.free()
	if _, err := d.WriteAt([]byte("abcd"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte("x"), 2); err == nil {
		t.Error("write inside the synced prefix accepted")
	}
	if _, err := d.WriteAt([]byte("ef"), 4); err != nil {
		t.Errorf("append after the synced prefix: %v", err)
	}
	// A truncate is durable at once: the log reset writes from 0 again.
	if err := d.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte("z"), 0); err != nil {
		t.Errorf("write after truncate: %v", err)
	}
	img, err := d.crashImage()
	if err != nil {
		t.Fatal(err)
	}
	defer img.free()
	if n, _ := img.Size(); n != 0 {
		t.Errorf("crash image after truncate and an unsynced write holds %d bytes, want 0", n)
	}
}
