package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dstore"
	"dstore/internal/ycsb"
)

// tiny returns options scaled for fast CI runs (no injected latency).
func tiny() Options {
	return Options{
		Threads:        2,
		Duration:       150 * time.Millisecond,
		SampleInterval: 50 * time.Millisecond,
		Records:        200,
		ValueBytes:     1024,
		Objects:        300,
		NoLatency:      true,
		Seed:           3,
	}
}

func TestRunWorkloadProducesData(t *testing.T) {
	o := tiny()
	o.setDefaults()
	kv, err := newDStore(o, dstore.ModeDIPPER, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	var res RunResult
	err = withLatency(o, func() (err error) {
		res, err = runWorkload(kv, ycsb.A(o.Records, o.ValueBytes), o)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps == 0 || res.Read.Count == 0 || res.Update.Count == 0 {
		t.Fatalf("no ops recorded: %+v", res)
	}
	if len(res.Throughput.Values) == 0 {
		t.Fatal("no throughput samples")
	}
	if res.System != "DStore" || res.Workload != "A" {
		t.Fatalf("labels: %q %q", res.System, res.Workload)
	}
}

// extensionKeys are the row keys each extension's snapshot must keep
// carrying — what its rows held before the snapshots shared one schema.
var extensionKeys = map[string][]string{
	"shards": {"shards", "threads", "write_kops", "read_kops", "total_kops",
		"upd_p50_us", "upd_p99_us", "upd_p999_us", "upd_p9999_us", "read_p9999_us"},
	"cache": {"workload", "cache_mb", "threads", "read_kops", "total_kops", "read_mean_us", "read_p99_us",
		"read_p999_us", "hits", "misses", "hit_ratio", "evictions", "read_speedup_vs_off"},
	"txn": {"system", "threads", "commits", "conflicts", "txn_per_sec", "abort_ratio", "read_kops",
		"txn_p50_us", "txn_p99_us"},
	"reshard": {"window", "write_kops", "read_kops", "total_kops", "upd_p99_us", "upd_p9999_us"},
	"batch": {"clients", "batched", "write_kops", "read_kops", "upd_p50_us", "upd_p99_us", "upd_p9999_us",
		"read_p50_us", "read_p99_us", "read_p9999_us", "gc_batches", "gc_records"},
}

// decodedTable is a table as a reader of the snapshot sees it.
type decodedTable struct {
	Title     string           `json:"title"`
	GCPercent *int             `json:"gc_percent"`
	Rows      []map[string]any `json:"rows"`
	Summary   map[string]any   `json:"summary"`
	Notes     []string         `json:"notes"`
}

func TestAllExperimentsRun(t *testing.T) {
	if len(Experiments) != 16 {
		t.Fatalf("expected 16 experiments (every table and figure + the YCSB, shard-scaling, block-cache, transaction, resharding, and batching extensions), got %d", len(Experiments))
	}
	for _, e := range Experiments {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if Find(e.ID) == nil {
				t.Fatalf("Find(%q) = nil", e.ID)
			}
			// Sweep extras below the defaults' largest point: the headline
			// numbers must still come from the largest.
			o := tiny()
			o.Shards, o.CacheMB = 2, 16
			tables, err := e.Run(o)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			var buf bytes.Buffer
			for _, tab := range tables {
				tab.Print(&buf)
			}
			if out := buf.String(); len(out) < 50 || !strings.Contains(out, "==") {
				t.Fatalf("%s printed no table: %q", e.ID, out)
			}

			data, err := json.Marshal(tables)
			if err != nil {
				t.Fatal(err)
			}
			var decoded []decodedTable
			if err := json.Unmarshal(data, &decoded); err != nil {
				t.Fatalf("%s: snapshot does not decode: %v", e.ID, err)
			}
			for i, d := range decoded {
				if d.Title == "" || d.GCPercent == nil || len(d.Rows) == 0 {
					t.Fatalf("%s table %d: title %q, gc_percent %v, %d rows", e.ID, i, d.Title, d.GCPercent, len(d.Rows))
				}
				for r, row := range d.Rows {
					for _, c := range tables[i].Cols {
						if row[c.Key] == nil {
							t.Fatalf("%s row %d has no value under %q: %v", e.ID, r, c.Key, row)
						}
					}
					for _, k := range extensionKeys[e.ID] {
						if row[k] == nil {
							t.Fatalf("%s row %d lost key %q: %v", e.ID, r, k, row)
						}
					}
				}
			}
			switch d := decoded[0]; e.ID {
			case "shards":
				if len(d.Rows) != 4 || d.Rows[3]["shards"] != 8.0 || d.Summary["write_speedup_vs_single"] == nil ||
					!strings.HasPrefix(d.Notes[0], "8-shard write throughput") {
					t.Fatalf("-shards 2 must leave the headline on 8 shards: rows %v summary %v notes %q", d.Rows, d.Summary, d.Notes)
				}
			case "cache":
				last := d.Rows[len(d.Rows)-1]
				if len(d.Rows) != 12 || last["cache_mb"] != 64.0 || d.Summary["largest_cache_mb"] != 64.0 ||
					d.Summary["ycsb_c_read_speedup"] != last["read_speedup_vs_off"] {
					t.Fatalf("-cache-mb 16 must leave the headline on 64MB: last row %v summary %v", last, d.Summary)
				}
				// Write-through: at the resident size the update-heavy mix hits
				// like the read-only one.
				if resident := d.Rows[3]; resident["workload"] != "A" || resident["cache_mb"] != 64.0 ||
					d.Summary["ycsb_a_hit_ratio"] != resident["hit_ratio"] || resident["hit_ratio"].(float64) < 0.9 {
					t.Fatalf("YCSB-A at the resident size: row %v summary %v, want the summary's ycsb_a_hit_ratio from it and at least 0.9", resident, d.Summary)
				}
			case "batch":
				if *d.GCPercent != -1 || !strings.Contains(strings.Join(d.Notes, "\n"), "Go GC off") {
					t.Fatalf("batch windows run with GC off and must say so: gc_percent %d notes %q", *d.GCPercent, d.Notes)
				}
			}
		})
	}
}

func TestSweepInsertsInOrder(t *testing.T) {
	for _, tc := range []struct {
		defaults []int
		extra    int
		want     []int
	}{
		{[]int{0, 8, 64}, 0, []int{0, 8, 64}},        // absent
		{[]int{0, 8, 64}, 8, []int{0, 8, 64}},        // already there
		{[]int{0, 8, 64}, 16, []int{0, 8, 16, 64}},   // between: -cache-mb 16
		{[]int{1, 4, 8}, 2, []int{1, 2, 4, 8}},       // between: -shards 2
		{[]int{1, 4, 8}, 1, []int{1, 4, 8}},          // the first default
		{[]int{1, 4, 8}, 16, []int{1, 4, 8, 16}},     // above
		{[]int{0, 8, 64}, 256, []int{0, 8, 64, 256}}, // above
	} {
		before := append([]int(nil), tc.defaults...)
		if got := sweep(tc.defaults, tc.extra); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("sweep(%v, %d) = %v, want %v", before, tc.extra, got, tc.want)
		}
		if !reflect.DeepEqual(tc.defaults, before) {
			t.Errorf("sweep(%v, %d) changed its defaults to %v", before, tc.extra, tc.defaults)
		}
	}
}

// TestMedianCellsCoversEveryColumn: three runs of one cell whose first run
// is the outlier in every numeric column, the counters included.
func TestMedianCellsCoversEveryColumn(t *testing.T) {
	runs := [][]any{
		{4, true, 900.0, uint64(90000), uint64(7), "x"},
		{4, true, 100.0, uint64(10000), uint64(50), "x"},
		{4, true, 120.0, uint64(12000), uint64(60), "x"},
	}
	got := medianCells(runs)
	want := []any{4.0, true, 120.0, 12000.0, 50.0, "x"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("medianCells = %v, want %v", got, want)
	}
	if runs[0][2] != 900.0 {
		t.Fatal("medianCells modified its input")
	}
}

// goldenTable is a fixed table through every kind of cell: numbers under the
// us, kops, ratio and count formats, a label column, a bool column, labels
// in numeric columns, a snapshot-only column, a summary and notes.
func goldenTable() *Table {
	tab := &Table{
		Title: "Golden: every cell format (us)",
		Cols: []Col{{"system", "system", nil}, {"batched", "batching", nil}, {"p50_us", "p50", us},
			{"write_kops", "write kops/s", kops}, {"speedup", "speedup", times}, {"evictions", "evict", count},
			{"hit_ratio", "", pct}},
		Summary:   fields{{"best", "DStore"}, {"speedup", 2.5}},
		Notes:     []string{"expected shape: first row wins", "second note"},
		GCPercent: -1,
	}
	tab.Row("DStore", true, uint64(41234), 85320.0, 1.2345, 17, 0.5)
	tab.Row("PMEM-RocksDB", false, uint64(1234567), 912.04, 0.5, uint64(0), 0.25)
	tab.Row("min/mean/max", "", "", "1.0/2.0/3.0", "", "-", "")
	return tab
}

// TestTablePrintGolden pins title, header, column order and cell formats
// byte for byte; the expected text is what the string-cell Print this table
// replaced produced for the same cells formatted by hand.
func TestTablePrintGolden(t *testing.T) {
	const want = `
== Golden: every cell format (us) ==
system        batching  p50     write kops/s  speedup  evict
DStore        on        41.2    85.3          1.23x    17
PMEM-RocksDB  off       1234.6  0.9           0.50x    0
min/mean/max                    1.0/2.0/3.0            -
  note: expected shape: first row wins
  note: second note
`
	var buf bytes.Buffer
	goldenTable().Print(&buf)
	if got := buf.String(); got != want {
		t.Fatalf("Print:\n%s\nwant:\n%s", got, want)
	}
}

// TestSnapshotGolden pins the snapshot encoding: the table's keys in column
// order with numbers unquoted and in the unit the key names, under the
// options and the host fingerprint.
func TestSnapshotGolden(t *testing.T) {
	const wantTable = `{
  "title": "Golden: every cell format (us)",
  "gc_percent": -1,
  "rows": [
    {
      "system": "DStore",
      "batched": true,
      "p50_us": 41.234,
      "write_kops": 85.32,
      "speedup": 1.2345,
      "evictions": 17,
      "hit_ratio": 0.5
    },
    {
      "system": "PMEM-RocksDB",
      "batched": false,
      "p50_us": 1234.567,
      "write_kops": 0.91204,
      "speedup": 0.5,
      "evictions": 0,
      "hit_ratio": 0.25
    },
    {
      "system": "min/mean/max",
      "batched": "",
      "p50_us": "",
      "write_kops": "1.0/2.0/3.0",
      "speedup": "",
      "evictions": "-",
      "hit_ratio": ""
    }
  ],
  "summary": {
    "best": "DStore",
    "speedup": 2.5
  },
  "notes": [
    "expected shape: first row wins",
    "second note"
  ]
}`
	got, err := json.MarshalIndent(goldenTable(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantTable {
		t.Fatalf("table encoding:\n%s\nwant:\n%s", got, wantTable)
	}

	path := filepath.Join(t.TempDir(), "out.json")
	o := tiny()
	if err := WriteSnapshot(path, o, []Result{{ID: "golden", Seconds: 1.5, Tables: []*Table{goldenTable()}}}); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Host        map[string]any `json:"host"`
		Options     map[string]any `json:"options"`
		Experiments []struct {
			ID     string            `json:"id"`
			Tables []json.RawMessage `json:"tables"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(file, &snap); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"num_cpu", "gomaxprocs", "go_version", "goos", "goarch", "gc_percent", "latency_injection"} {
		if snap.Host[k] == nil {
			t.Errorf("host block has no %q: %v", k, snap.Host)
		}
	}
	if snap.Host["latency_injection"] != false || snap.Options["threads"] != 2.0 || snap.Options["records"] != 200.0 {
		t.Errorf("host %v / options %v do not reflect the run's options", snap.Host, snap.Options)
	}
	if len(snap.Experiments) != 1 || snap.Experiments[0].ID != "golden" || len(snap.Experiments[0].Tables) != 1 {
		t.Fatalf("experiments: %+v", snap.Experiments)
	}
	var compact, wantCompact bytes.Buffer
	json.Compact(&compact, snap.Experiments[0].Tables[0]) //nolint:errcheck // decoded a moment ago
	json.Compact(&wantCompact, []byte(wantTable))         //nolint:errcheck // a constant
	if compact.String() != wantCompact.String() {
		t.Errorf("table inside the snapshot file differs from the table alone:\n%s", compact.String())
	}
	if h, o, e := bytes.Index(file, []byte(`"host"`)), bytes.Index(file, []byte(`"options"`)), bytes.Index(file, []byte(`"experiments"`)); !(0 < h && h < o && o < e) {
		t.Errorf("top-level key order is not host, options, experiments")
	}
}

func TestPreloadAllKeysReadable(t *testing.T) {
	o := tiny()
	o.setDefaults()
	kv, err := newDStore(o, dstore.ModeDIPPER, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if err := preload(kv, o); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < o.Records; i++ {
		if _, err := kv.Get(ycsb.Key(i), nil); err != nil {
			t.Fatalf("key %d unreadable after preload: %v", i, err)
		}
	}
}
