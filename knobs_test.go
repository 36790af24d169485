package dstore_test

import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dstore"
	"dstore/internal/client"
	"dstore/internal/replica"
	"dstore/internal/server"
)

// TestConfigSurface is the config ratchet, the twin of the line-count one:
// the exported settable values of the five config structs may not exceed
// analysis/knobs.ceiling. A PR that removes a setting lowers the file; one
// that adds a setting needs a caller that cannot live with a constant.
func TestConfigSurface(t *testing.T) {
	raw, err := os.ReadFile("analysis/knobs.ceiling")
	if err != nil {
		t.Fatal(err)
	}
	ceiling, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("analysis/knobs.ceiling: %v", err)
	}
	total := 0
	for _, cfg := range []any{dstore.Config{}, dstore.ServeOptions{}, server.Config{}, client.Config{}, replica.Config{}} {
		typ := reflect.TypeOf(cfg)
		n := 0
		for _, f := range reflect.VisibleFields(typ) {
			if f.IsExported() && !f.Anonymous {
				n++
			}
		}
		t.Logf("%s: %d", typ, n)
		total += n
	}
	if total > ceiling {
		t.Fatalf("%d exported config fields, ceiling %d (analysis/knobs.ceiling)", total, ceiling)
	}
}
