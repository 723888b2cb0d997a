package registry

import (
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"
)

// TestGetTypedErrors pins the Get error contract: GC'd versions report
// *GoneError, never-allocated IDs report ErrUnknownVersion.
func TestGetTypedErrors(t *testing.T) {
	cfg := testConfig()
	r, err := Open("", 2)
	if err != nil {
		t.Fatal(err)
	}
	var first uint64
	for salt := uint64(1); salt <= 4; salt++ {
		id, err := r.Put(cfg, trainedModel(t, cfg, salt))
		if err != nil {
			t.Fatal(err)
		}
		if first == 0 {
			first = id
		}
	}
	if v, err := r.Get(first); err == nil {
		t.Fatalf("version %d survived retain=2 across 4 puts: %+v", first, v)
	} else {
		var gone *GoneError
		if !errors.As(err, &gone) || gone.ID != first {
			t.Fatalf("GC'd version error = %v, want *GoneError{%d}", err, first)
		}
	}
	if _, err := r.Get(999); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("unallocated ID error = %v, want ErrUnknownVersion", err)
	}
	if _, err := r.Get(0); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("ID 0 error = %v, want ErrUnknownVersion", err)
	}
	if err := r.Promote(first); err == nil {
		t.Fatal("promoted a GC'd version")
	} else {
		var gone *GoneError
		if !errors.As(err, &gone) {
			t.Fatalf("Promote on GC'd version = %v, want *GoneError", err)
		}
	}
}

// TestGetRacesGC is the regression test for the Get-vs-GC race: concurrent
// getters holding stale IDs against a putter that churns retention GC must
// only ever observe a valid version or a typed error. Run with -race.
func TestGetRacesGC(t *testing.T) {
	cfg := testConfig()
	r, err := Open("", 2)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := r.Put(cfg, trainedModel(t, cfg, 0))
	if err != nil {
		t.Fatal(err)
	}
	m := trainedModel(t, cfg, 1)
	const puts = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < puts; i++ {
			if _, err := r.Put(cfg, m); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := seed; id < seed+puts; id++ {
				v, err := r.Get(id)
				switch {
				case err == nil:
					if v == nil || v.ID != id || v.Model == nil {
						t.Errorf("Get(%d) returned malformed version %+v", id, v)
						return
					}
				case errors.Is(err, ErrUnknownVersion):
					// Not allocated yet: the getter ran ahead of the putter.
				default:
					var gone *GoneError
					if !errors.As(err, &gone) || gone.ID != id {
						t.Errorf("Get(%d) = untyped error %v", id, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMigrateV2 rewrites a v1 registry dir in place and checks the models
// still load with identical binarised memory and a shrunken footprint.
func TestMigrateV2(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	r, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	models := map[uint64][]uint64{}
	for salt := uint64(1); salt <= 3; salt++ {
		m := trainedModel(t, cfg, salt)
		id, err := r.Put(cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		models[id] = append([]uint64(nil), m.Bin[0].Words()...)
		if err := r.Promote(id); err != nil {
			t.Fatal(err)
		}
	}
	sizeBefore := dirSize(t, dir)
	migrated, skipped, err := MigrateV2(dir)
	if err != nil {
		t.Fatal(err)
	}
	if migrated != 3 || skipped != 0 {
		t.Fatalf("MigrateV2 = (%d, %d), want (3, 0)", migrated, skipped)
	}
	// Idempotent: a second pass skips everything.
	if migrated, skipped, err = MigrateV2(dir); err != nil || migrated != 0 || skipped != 3 {
		t.Fatalf("second MigrateV2 = (%d, %d, %v), want (0, 3, nil)", migrated, skipped, err)
	}
	if after := dirSize(t, dir); after >= sizeBefore {
		t.Fatalf("migration grew the dir: %d -> %d bytes", sizeBefore, after)
	}
	r2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id, words := range models {
		v, err := r2.Get(id)
		if err != nil {
			t.Fatalf("version %d lost in migration: %v", id, err)
		}
		if !reflect.DeepEqual(v.Model.Bin[0].Words(), words) {
			t.Fatalf("version %d binarised memory changed in migration", id)
		}
	}
	if live := r2.Live(); live == nil || live.ID != 3 {
		t.Fatalf("live version lost in migration: %+v", live)
	}
}

func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}
