package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"text/tabwriter"
)

// A format turns the number an experiment supplies (ns, ops/s, bytes, a
// ratio) into the value the snapshot stores under the column's key — in the
// unit the key names — and the text Print shows for it.
type format func(v float64) (stored float64, text string)

// unit is the format that stores v/div and prints it with verb.
func unit(div float64, verb string) format {
	return func(v float64) (float64, string) {
		v /= div
		return v, fmt.Sprintf(verb, v)
	}
}

var (
	us    = unit(1000, "%.1f")   // ns → µs
	usSfx = unit(1000, "%.1fus") // ns → µs, unit attached
	ms    = unit(1e6, "%.1f")    // ns → ms
	kops  = unit(1000, "%.1f")   // ops/s → kops/s
	mb    = unit(1, "%.1f")      // MB/s
	mib   = unit(1<<20, "%.1f")  // bytes → MiB
	count = unit(1, "%.0f")      // whole numbers
	f2    = unit(1, "%.2f")
	f4    = unit(1, "%.4f")
	times = unit(1, "%.2fx") // a ratio against a baseline row

	// pct stores a 0..1 ratio and prints it as a percentage.
	pct format = func(v float64) (float64, string) { return v, fmt.Sprintf("%.1f", 100*v) }
)

// Col is one column of a Table: the key its cells are stored under in the
// snapshot, the header Print shows (empty: the column is snapshot-only), and
// the format of its numeric cells (nil for a column of labels).
type Col struct {
	Key, Header string
	Fmt         format
}

// Table is one experiment result. A cell is supplied once, as a number, a
// label string, or a bool (printed on/off); Print and the snapshot both
// render it through its column.
type Table struct {
	Title string
	Cols  []Col
	// Summary holds the headline numbers derived from the rows (speedups,
	// migration cost); snapshot-only, the notes say them in prose.
	Summary fields
	Notes   []string
	// GCPercent is the Go GC setting the measurement windows ran under
	// (-1: off). newTable fills in the process's own.
	GCPercent int

	rows [][]any
}

func newTable(title string, cols ...Col) *Table {
	return &Table{Title: title, Cols: cols, GCPercent: gcPercent()}
}

// num is a cell's numeric value; ok is false for labels and bools.
func num(cell any) (v float64, ok bool) {
	switch c := cell.(type) {
	case float64:
		return c, true
	case int:
		return float64(c), true
	case int64:
		return float64(c), true
	case uint64:
		return float64(c), true
	}
	return 0, false
}

// Row appends one row, a cell per column in column order. The cells are
// written by the experiment's own code against its own column list, so a
// count or type mismatch is a programmer error and panics.
//
//dstore:invariant
func (t *Table) Row(cells ...any) {
	if len(cells) != len(t.Cols) {
		panic(fmt.Sprintf("bench: table %q: %d cells for %d columns", t.Title, len(cells), len(t.Cols)))
	}
	for i, c := range cells {
		switch c.(type) {
		case string, bool:
		default:
			if _, ok := num(c); !ok || t.Cols[i].Fmt == nil {
				panic(fmt.Sprintf("bench: table %q column %q: bad cell %T", t.Title, t.Cols[i].Key, c))
			}
		}
	}
	t.rows = append(t.rows, cells)
}

// cell renders row i's cell in column j: what the snapshot stores and what
// Print shows.
func (t *Table) cell(i, j int) (stored any, text string) {
	switch c := t.rows[i][j].(type) {
	case string:
		return c, c
	case bool:
		if c {
			return c, "on"
		}
		return c, "off"
	}
	v, _ := num(t.rows[i][j])
	return t.Cols[j].Fmt(v)
}

// Num is the stored value of row i's cell under key (0 for a label). An
// unknown key is a programmer error and panics.
//
//dstore:invariant
func (t *Table) Num(i int, key string) float64 {
	for j, c := range t.Cols {
		if c.Key == key {
			v, _ := t.cell(i, j)
			f, _ := v.(float64)
			return f
		}
	}
	panic(fmt.Sprintf("bench: table %q has no column %q", t.Title, key))
}

// Note appends a formatted note.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Print renders the table's printed columns and its notes.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	line := func(text func(j int) string) {
		sep := ""
		for j, c := range t.Cols {
			if c.Header != "" {
				fmt.Fprint(tw, sep, text(j))
				sep = "\t"
			}
		}
		fmt.Fprintln(tw)
	}
	line(func(j int) string { return t.Cols[j].Header })
	for i := range t.rows {
		line(func(j int) string { _, s := t.cell(i, j); return s })
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// MarshalJSON stores every column, printed or not, keyed by column key.
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := make([]fields, len(t.rows))
	for i := range t.rows {
		for j, c := range t.Cols {
			v, _ := t.cell(i, j)
			rows[i] = append(rows[i], field{c.Key, v})
		}
	}
	out := fields{{"title", t.Title}, {"gc_percent", t.GCPercent}, {"rows", rows}}
	if len(t.Summary) > 0 {
		out = append(out, field{"summary", t.Summary})
	}
	return append(out, field{"notes", t.Notes}).MarshalJSON()
}

// fields is a JSON object that keeps its keys in the order given (a Go map
// would sort them; rows read best in column order).
type fields []field

type field struct {
	Key string
	Val any
}

func (f fields) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	b.WriteByte('{')
	for i, e := range f {
		if i > 0 {
			b.WriteByte(',')
		}
		if err := enc.Encode(e.Key); err != nil {
			return nil, err
		}
		b.WriteByte(':')
		if err := enc.Encode(e.Val); err != nil {
			return nil, err
		}
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// medianCells reduces repeated runs of one row to a single row: the median
// of every numeric column; labels and bools, equal across runs, come from
// the first.
func medianCells(runs [][]any) []any {
	out := append([]any(nil), runs[0]...)
	vs := make([]float64, len(runs))
	for j := range out {
		if _, ok := num(out[j]); !ok {
			continue
		}
		for i, r := range runs {
			vs[i], _ = num(r[j])
		}
		sort.Float64s(vs)
		out[j] = vs[len(vs)/2]
	}
	return out
}

// sweep is an experiment's x-axis: defaults (ascending) plus the caller's
// extra value when it is positive and not already there, inserted in order
// — experiments take their headline from the last, largest, point.
func sweep(defaults []int, extra int) []int {
	i := sort.SearchInts(defaults, extra)
	if extra <= 0 || (i < len(defaults) && defaults[i] == extra) {
		return defaults
	}
	out := append([]int(nil), defaults[:i]...)
	return append(append(out, extra), defaults[i:]...)
}

// Host fingerprints the machine and runtime a snapshot's numbers came from.
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// GCPercent is the process's own GC setting; a table whose windows ran
	// under another one says so in its gc_percent.
	GCPercent        int  `json:"gc_percent"`
	LatencyInjection bool `json:"latency_injection"`
}

// gcPercent reads the process's GC percent (-1: off) without disturbing it.
func gcPercent() int {
	s := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(s)
	return int(int64(s[0].Value.Uint64())) // off reads as uint64(-1)
}

// Result is one finished experiment.
type Result struct {
	ID      string   `json:"id"`
	Seconds float64  `json:"seconds"`
	Tables  []*Table `json:"tables"`
}

// WriteSnapshot writes the one machine-readable shape of dstore-bench
// output to path: where the numbers came from, the options they ran under,
// and every table of results.
func WriteSnapshot(path string, o Options, results []Result) error {
	o.setDefaults()
	snap := struct {
		Host        Host     `json:"host"`
		Options     Options  `json:"options"`
		Experiments []Result `json:"experiments"`
	}{
		Host: Host{
			NumCPU:           runtime.NumCPU(),
			GOMAXPROCS:       runtime.GOMAXPROCS(0),
			GoVersion:        runtime.Version(),
			GOOS:             runtime.GOOS,
			GOARCH:           runtime.GOARCH,
			GCPercent:        gcPercent(),
			LatencyInjection: !o.NoLatency,
		},
		Options:     o,
		Experiments: results,
	}
	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
