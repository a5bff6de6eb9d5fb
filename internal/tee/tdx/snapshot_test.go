package tdx

import (
	"errors"
	"testing"
)

func TestTDHExportImportMem(t *testing.T) {
	m := NewModule(CurrentFirmware, 1)
	id := buildTD(t, m, 4)
	img, err := m.TDHExportMem(id)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if len(img.Pages) != 4 {
		t.Fatalf("exported %d pages, want 4", len(img.Pages))
	}
	imported, err := m.TDHImportMem(img)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if imported == id {
		t.Fatal("import reused the source TD id")
	}
	// The imported TD is finalized: it can be entered but not have more
	// pages measured in.
	if err := m.TDHVPEnter(imported); err != nil {
		t.Fatalf("enter imported: %v", err)
	}
	if err := m.TDHMemPageAdd(imported, 64*PageSize, []byte{1}); !errors.Is(err, ErrBadState) {
		t.Errorf("page add on imported TD: %v", err)
	}
	if _, err := m.TDHImportMem(nil); err == nil {
		t.Error("nil image import succeeded")
	}
}
