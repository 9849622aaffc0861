package fs

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"testing"

	"vino/internal/graft"
	"vino/internal/kernel"
)

// encodeImage is the payload CrashImport reads for ex.
func encodeImage(t testing.TB, ex *fsExport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ex); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// durableState is what a rejected import must leave as it was: the
// exported image (files, their dirty blocks, directories) and the LBA
// cursor.
func durableState(t testing.TB, f *FS) ([]byte, int64) {
	t.Helper()
	data, err := f.CrashExport()
	if err != nil {
		t.Fatal(err)
	}
	return data, f.nextLBA
}

// TestCrashImportChecksPayload: CrashImport rejects an image the file
// system could not serve, leaving its files, directories and LBA cursor
// as they were, and restores an honest export exactly.
func TestCrashImportChecksPayload(t *testing.T) {
	block := make([]byte, BlockSize)
	file := func(name string, size int64, dirty map[int64][]byte) fileExport {
		return fileExport{Name: name, Size: size, Owner: int64(graft.Root), Dirty: dirty}
	}
	// 4097 files of the largest size need more block addresses than an
	// int64 holds.
	biggest := int64(math.MaxInt64 - (BlockSize - 1))
	many := make([]fileExport, 4097)
	for i := range many {
		many[i] = file(fmt.Sprintf("f%d", i), biggest, nil)
	}
	for _, tc := range []struct {
		name  string
		files []fileExport
	}{
		{"negative size", []fileExport{file("a", -1<<40, nil)}},
		{"block count overflows", []fileExport{file("a", math.MaxInt64, nil)}},
		{"LBA cursor overflows", many},
		{"duplicate name", []fileExport{file("a", BlockSize, nil), file("a", BlockSize, nil)}},
		{"dirty block past the end", []fileExport{file("a", 2*BlockSize, map[int64][]byte{2: block})}},
		{"negative dirty block", []fileExport{file("a", 2*BlockSize, map[int64][]byte{-1: block})}},
		{"short dirty block", []fileExport{file("a", 2*BlockSize, map[int64][]byte{0: block[:5]})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, f := newTestFS(16)
			f.Create("pre", BlockSize, graft.Root, false)
			if err := f.Mkdir("d", graft.Root); err != nil {
				t.Fatal(err)
			}
			before, lba := durableState(t, f)
			if err := f.CrashImport(encodeImage(t, &fsExport{Files: tc.files, Dirs: []string{"new"}})); err == nil {
				t.Fatal("CrashImport accepted the image")
			}
			if after, lba2 := durableState(t, f); !bytes.Equal(after, before) || lba2 != lba {
				t.Fatalf("rejected import changed the file system (LBA cursor %d -> %d)", lba, lba2)
			}
		})
	}

	t.Run("honest round trip", func(t *testing.T) {
		k, f := newTestFS(16)
		f.Create("db", 3*BlockSize, graft.Root, false)
		f.Create("small", 10, graft.Root, true)
		if err := f.Mkdir("d", graft.Root); err != nil {
			t.Fatal(err)
		}
		runProc(t, k, graft.Root, func(p *kernel.Process) {
			of, err := f.Open(p.Thread, "db")
			if err != nil {
				t.Error(err)
				return
			}
			defer of.Close()
			if _, err := of.WriteAt(p.Thread, bytes.Repeat([]byte{0x5A}, BlockSize), BlockSize); err != nil {
				t.Error(err)
			}
		})
		want, lba := durableState(t, f)
		_, g := newTestFS(16)
		if err := g.CrashImport(want); err != nil {
			t.Fatalf("CrashImport: %v", err)
		}
		if bad := g.CrashAudit(); len(bad) != 0 {
			t.Fatalf("audit after import: %v", bad)
		}
		if got, lba2 := durableState(t, g); !bytes.Equal(got, want) || lba2 != lba {
			t.Fatalf("round trip changed the image (LBA cursor %d -> %d)", lba, lba2)
		}
	})
}

// FuzzFSImport: CrashImport never panics on arbitrary bytes; a payload
// it rejects leaves the file system as it was, and one it accepts
// leaves CrashAudit empty.
func FuzzFSImport(f *testing.F) {
	k, src := newTestFS(16)
	src.Create("db", 3*BlockSize, graft.Root, false)
	k.SpawnProcess("app", graft.Root, func(p *kernel.Process) {
		if of, err := src.Open(p.Thread, "db"); err == nil {
			_, _ = of.WriteAt(p.Thread, make([]byte, BlockSize), 0)
		}
	})
	if err := k.Run(); err != nil {
		f.Fatal(err)
	}
	honest, err := src.CrashExport()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(honest)
	f.Add(encodeImage(f, &fsExport{Files: []fileExport{{Name: "a", Size: BlockSize, Dirty: map[int64][]byte{0: make([]byte, 5)}}}}))
	f.Add(encodeImage(f, &fsExport{Files: []fileExport{{Name: "a", Size: -1 << 40}}, Dirs: []string{"d"}}))
	f.Add([]byte("not a gob"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, fsys := newTestFS(16)
		fsys.Create("pre", BlockSize, graft.Root, false)
		before, lba := durableState(t, fsys)
		if err := fsys.CrashImport(data); err != nil {
			if after, lba2 := durableState(t, fsys); !bytes.Equal(after, before) || lba2 != lba {
				t.Fatalf("rejected import (%v) changed the file system", err)
			}
			return
		}
		if bad := fsys.CrashAudit(); len(bad) != 0 {
			t.Fatalf("accepted import fails the audit: %v", bad)
		}
	})
}
