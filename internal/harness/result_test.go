package harness

import (
	"encoding/json"
	"errors"
	"testing"
)

// TestResultSchemaVersionStamped: BuildResult stamps the current
// schema version and DecodeResult round-trips it.
func TestResultSchemaVersionStamped(t *testing.T) {
	e, ok := ByID("tab1")
	if !ok {
		t.Fatal("tab1 missing")
	}
	tbl, err := e.Run(Options{}.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	r := BuildResult(e, Options{}, tbl)
	if r.SchemaVersion != ResultSchemaVersion {
		t.Fatalf("SchemaVersion = %d, want %d", r.SchemaVersion, ResultSchemaVersion)
	}
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(body)
	if err != nil {
		t.Fatal(err)
	}
	if back.Experiment != r.Experiment || back.Rendered != r.Rendered {
		t.Fatal("round trip lost fields")
	}
}

// TestDecodeResultRejectsMismatch: any other version — including the
// implicit 0 of pre-versioning payloads — fails with the typed error.
func TestDecodeResultRejectsMismatch(t *testing.T) {
	for _, body := range []string{
		`{"experiment":"tab1"}`,                     // no version field
		`{"schema_version":0,"experiment":"tab1"}`,  // explicit zero
		`{"schema_version":99,"experiment":"tab1"}`, // future build
	} {
		_, err := DecodeResult([]byte(body))
		var sme *SchemaMismatchError
		if !errors.As(err, &sme) {
			t.Fatalf("DecodeResult(%s) err = %v, want SchemaMismatchError", body, err)
		}
		if sme.Want != ResultSchemaVersion {
			t.Fatalf("Want = %d", sme.Want)
		}
	}
	if _, err := DecodeResult([]byte("{broken")); err == nil {
		t.Fatal("malformed JSON decoded")
	}
}
