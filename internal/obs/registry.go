package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name="value" pair attached to an instrument. Labels are
// rendered (sorted, escaped) once at registration, so the hot path never
// touches them.
type Label struct {
	Name  string
	Value string
}

// Kind is the exposition type of a metric family.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// sample is one registered instrument inside a family: exactly one of the
// value sources is set. labels is the pre-rendered, escaped
// `{k="v",...}` suffix ("" for unlabeled metrics).
type sample struct {
	labels  string
	counter *Counter
	fcnt    *FloatCounter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

func (s *sample) value() float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.fcnt != nil:
		return s.fcnt.Value()
	case s.gauge != nil:
		return s.gauge.Value()
	case s.fn != nil:
		return s.fn()
	default:
		return 0
	}
}

// family groups every label variant of one metric name under a single
// HELP/TYPE pair, as the exposition format requires.
type family struct {
	name    string
	help    string
	kind    Kind
	samples map[string]*sample // key = rendered label suffix
	order   []string           // sorted label suffixes (render order)
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format (version 0.0.4). Registration is idempotent:
// re-registering the same (name, labels) returns the existing instrument,
// so dynamic label values (per-routine, per-format) can register lazily
// off the hot path.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// AddCollector registers a hook run (under the registry lock) at the start
// of every exposition render. Collectors refresh gauges whose source is
// external state — runtime memstats, cache sizes — so one scrape sees one
// consistent snapshot instead of per-gauge re-reads.
func (r *Registry) AddCollector(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Counter registers (or finds) an integer counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.sample(name, help, KindCounter, labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// FloatCounter registers (or finds) a float counter (cumulative seconds
// and the like; rendered as a counter family).
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	s := r.sample(name, help, KindCounter, labels)
	if s.fcnt == nil {
		s.fcnt = &FloatCounter{}
	}
	return s.fcnt
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.sample(name, help, KindGauge, labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Func registers a metric whose value is produced by fn at render time,
// exposed with the given kind (gauge for instantaneous reads, counter for
// monotonic sources like GC totals).
func (r *Registry) Func(name, help string, kind Kind, fn func() float64, labels ...Label) {
	s := r.sample(name, help, kind, labels)
	s.fn = fn
}

// Histogram registers (or finds) a fixed-bucket histogram. Bounds must be
// strictly increasing and non-empty; pass DefLatencyBuckets for request
// latencies.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	s := r.sample(name, help, KindHistogram, labels)
	if s.hist == nil {
		s.hist = newHistogram(bounds)
	}
	return s.hist
}

// sample finds or creates the (family, label set) slot, enforcing a
// consistent kind per name. Invalid names and kind mismatches panic: they
// are programmer errors at registration sites, not runtime conditions.
func (r *Registry) sample(name, help string, kind Kind, labels []Label) *sample {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	suffix := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, samples: make(map[string]*sample)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s, re-registered as %s", name, f.kind, kind))
	}
	s, ok := f.samples[suffix]
	if !ok {
		s = &sample{labels: suffix}
		f.samples[suffix] = s
		f.order = append(f.order, suffix)
		sort.Strings(f.order)
	}
	return s
}

// validName checks the metric-name grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels sorts and escapes a label list into the exposition suffix
// `{a="x",b="y"}` ("" when empty).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if !validName(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Name))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes backslash, double-quote, and newline per the
// exposition format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a sample value the way Prometheus clients do.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the text exposition format:
// families in sorted name order, each emitting one HELP line, one TYPE
// line, then its samples in sorted label order. Histograms expand into
// cumulative _bucket series (ending at le="+Inf"), _sum, and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	for _, fn := range r.collectors {
		fn()
	}
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		f := r.families[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, suffix := range f.order {
			s := f.samples[suffix]
			if f.kind == KindHistogram && s.hist != nil {
				writeHistogram(&b, f.name, suffix, s.hist)
				continue
			}
			b.WriteString(f.name)
			b.WriteString(suffix)
			b.WriteByte(' ')
			b.WriteString(formatValue(s.value()))
			b.WriteByte('\n')
		}
	}
	r.mu.Unlock()

	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram sample set. The bucket counts are
// loaded once into a cumulative series, so a scrape racing Observe still
// sees monotone buckets with _count equal to the +Inf bucket.
func writeHistogram(b *strings.Builder, name, suffix string, h *Histogram) {
	// Splice le="..." into the existing label suffix.
	open := func(le string) string {
		if suffix == "" {
			return `{le="` + le + `"}`
		}
		return suffix[:len(suffix)-1] + `,le="` + le + `"}`
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, open(formatValue(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, open("+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, suffix, formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, cum)
}
