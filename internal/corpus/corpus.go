// Package corpus generates the deterministic synthetic workload data
// the experiments compress.
//
// The paper evaluates on the Silesia compression corpus, a fixed set of
// files spanning the data types found in practice (English text, source
// code, XML, database tables, executables, medical imagery, near-random
// scientific data). Shipping Silesia is not possible offline, so this
// package synthesizes one stream per class with generators tuned so
// that 4 KB blocks compress under this repository's LZ4 at ratios
// matching the class character, and the default mix lands near the
// corpus-wide LZ4 ratio (~2.1x). The blocks drive the middle tier, and
// their *actual* compressed sizes determine replication traffic, so the
// generators matter to every bandwidth figure.
package corpus

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/disagg/smartds/internal/rng"
)

// Class identifies a data type in the synthetic corpus.
type Class int

// Corpus data classes, mirroring the character of Silesia members.
const (
	Text     Class = iota // dickens/webster: English prose
	Source                // samba: program source code
	XML                   // xml: markup with heavy tag repetition
	Database              // nci/osdb: fixed-width records, low-cardinality fields
	Binary                // mozilla/ooffice: executables; structured with noise
	Medical               // mr/x-ray: sensor imagery; weakly compressible
	Random                // sao-like: effectively incompressible
	Zero                  // all-zero pages (sparse disks are common in clouds)
	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Text:
		return "text"
	case Source:
		return "source"
	case XML:
		return "xml"
	case Database:
		return "database"
	case Binary:
		return "binary"
	case Medical:
		return "medical"
	case Random:
		return "random"
	case Zero:
		return "zero"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Classes lists every class in declaration order.
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// DefaultMix is the block-sampling weight per class. It is chosen so the
// mixed stream's LZ4 ratio sits near Silesia's ~2.1x.
func DefaultMix() map[Class]float64 {
	return map[Class]float64{
		Text:     0.22,
		Source:   0.15,
		XML:      0.10,
		Database: 0.19,
		Binary:   0.16,
		Medical:  0.09,
		Random:   0.04,
		Zero:     0.05,
	}
}

// Corpus holds one pre-generated stream per class plus a sampler.
type Corpus struct {
	streams [numClasses][]byte
	classes []Class
	weights []float64
	r       *rng.Source
}

// Option configures corpus construction.
type Option func(*config)

type config struct {
	bytesPerClass int
}

// WithStreamSize sets the per-class stream length in bytes.
func WithStreamSize(n int) Option {
	return func(c *config) { c.bytesPerClass = n }
}

// New builds a corpus from a seed. The default stream size (256 KiB per
// class) keeps construction cheap while giving 4 KB blocks plenty of
// distinct offsets.
func New(seed uint64, opts ...Option) *Corpus {
	cfg := config{bytesPerClass: 256 << 10}
	for _, o := range opts {
		o(&cfg)
	}
	// The sampler takes root's first child and class cl its (cl+2)th.
	// Splitting them all up front draws what an interleaved Split per
	// class would: no generator touches root.
	root := rng.New(seed)
	c := &Corpus{r: root.Split()}
	var srcs [numClasses]*rng.Source
	for cl := range srcs {
		srcs[cl] = root.Split()
		c.streams[cl] = make([]byte, cfg.bytesPerClass)
	}
	generate(func(cl Class) { gens[cl](srcs[cl], c.streams[cl]) })
	// Walk classes in id order rather than ranging over the mix map, so
	// the weight table (and every Choice draw from it) is independent of
	// Go's map iteration seed.
	mix := DefaultMix()
	for cl := Class(0); cl < numClasses; cl++ {
		if w := mix[cl]; w > 0 {
			c.classes = append(c.classes, cl)
			c.weights = append(c.weights, w)
		}
	}
	return c
}

var gens = [numClasses]func(*rng.Source, []byte){
	Text:     genText,
	Source:   genSource,
	XML:      genXML,
	Database: genDatabase,
	Binary:   genBinary,
	Medical:  genMedical,
	Random:   genRandom,
	Zero:     genZero,
}

// buildOrder lists the classes longest generation first, so the last
// class a worker picks up is a short one.
var buildOrder = [numClasses]Class{Medical, Text, Database, Source, XML, Random, Binary, Zero}

// generate runs fill once per class on up to min(GOMAXPROCS, classes)
// goroutines, the caller's included; with one worker it starts none and
// the caller fills every class. Each fill writes only its own class's
// stream from its own source, so the streams do not depend on which
// goroutine ran which class or when.
func generate(fill func(Class)) {
	// GOMAXPROCS(0) only reads the setting; it sizes the generator pool.
	workers := min(runtime.GOMAXPROCS(0), int(numClasses))
	var next atomic.Int32
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= len(buildOrder) {
				return
			}
			fill(buildOrder[i])
		}
	}
	wg.Add(workers)
	for k := 1; k < workers; k++ {
		//detcheck:spawn corpus generator: fills classes that share no state, before any simulation exists; generate waits for all of them
		go work()
	}
	work()
	wg.Wait()
}

// Block returns a fresh buffer of the given size sampled from the class
// mix at a random stream offset.
func (c *Corpus) Block(size int) []byte {
	var out []byte
	if size > 0 {
		out = make([]byte, size)
	}
	c.Fill(out)
	return out
}

// Fill overwrites dst with a block sampled from the class mix at a
// random stream offset. It makes the same draws as Block(len(dst)).
func (c *Corpus) Fill(dst []byte) {
	c.fillOf(c.classes[c.r.Choice(c.weights)], dst)
}

// BlockOf samples a block from one specific class.
func (c *Corpus) BlockOf(class Class, size int) []byte {
	if class < 0 || class >= numClasses {
		panic(fmt.Sprintf("corpus: invalid class %d", class))
	}
	if size <= 0 {
		return nil
	}
	out := make([]byte, size)
	c.fillOf(class, out)
	return out
}

// fillOf copies len(dst) bytes of class's stream into dst, starting at
// a random offset and wrapping around; an empty dst draws nothing.
func (c *Corpus) fillOf(class Class, dst []byte) {
	if len(dst) == 0 {
		return
	}
	stream := c.streams[class]
	off := c.r.Intn(len(stream))
	n := copy(dst, stream[off:])
	for n < len(dst) { // wrap around
		n += copy(dst[n:], stream)
	}
}

// --- class generators -------------------------------------------------

var words = []string{
	"the", "of", "and", "a", "to", "in", "is", "was", "he", "for",
	"it", "with", "as", "his", "on", "be", "at", "by", "had", "not",
	"storage", "block", "server", "request", "data", "cloud", "virtual",
	"machine", "network", "message", "header", "payload", "compress",
	"middle", "tier", "disk", "segment", "chunk", "replica", "latency",
	"throughput", "bandwidth", "memory", "device", "engine", "flexible",
	"morning", "evening", "window", "garden", "letter", "whisper",
	"pleasant", "gentle", "curious", "remarkable", "certainly", "however",
}

// zipfCum[i] is the sum of the first i+1 Zipf word weights 1/(k+1),
// added in index order: the partial sums rng.Choice forms on every
// call, so zipfWord picks the index Choice would.
var zipfCum = func() []float64 {
	cum := make([]float64, len(words))
	acc := 0.0
	for i := range cum {
		acc += 1.0 / float64(i+1)
		cum[i] = acc
	}
	return cum
}()

// zipfWord draws a word index exactly as r.Choice over the Zipf weights
// does: one Float64 scaled by the total, then the first partial sum
// above it, found by Choice's own linear scan.
func zipfWord(r *rng.Source) int {
	target := r.Float64() * zipfCum[len(zipfCum)-1]
	for i, c := range zipfCum {
		if target < c {
			return i
		}
	}
	return len(zipfCum) - 1
}

// genText emits Zipf-weighted English-like prose.
func genText(r *rng.Source, buf []byte) {
	i := 0
	col := 0
	for i < len(buf) {
		word := words[zipfWord(r)]
		i += copy(buf[i:], word)
		if i < len(buf) {
			if col += len(word) + 1; col > 72 {
				buf[i] = '\n'
				col = 0
			} else if r.Float64() < 0.08 {
				buf[i] = '.'
			} else {
				buf[i] = ' '
			}
			i++
		}
	}
}

var sourceIdents = []string{"ret", "buf", "len", "ctx", "req", "err", "ptr", "idx", "off", "dev"}

// sourceTemplates are C-like lines split at their %s verbs: each line
// is its pieces with one identifier between each pair.
var sourceTemplates = func() [][]string {
	lines := []string{
		"static int %s_handle(struct %s *%s, int %s)\n{\n",
		"\tif (%s->%s == NULL)\n\t\treturn -EINVAL;\n",
		"\t%s = %s_alloc(%s, sizeof(*%s));\n",
		"\tfor (%s = 0; %s < %s; %s++)\n",
		"\t\t%s[%s] = %s(%s);\n",
		"\treturn %s;\n}\n\n",
		"/* %s: process one %s from the %s queue */\n",
	}
	out := make([][]string, len(lines))
	for k, l := range lines {
		out[k] = strings.Split(l, "%s")
	}
	return out
}()

// genSource emits C-like source code.
//
// Each line draws four identifiers whatever its template. The streams
// were first made by fmt.Sprintf with all four as arguments, which
// appends "%!(EXTRA string=a, string=b)" for the ones a template with
// fewer verbs leaves unused. That suffix is kept, byte for byte:
// dropping it would change every source block, its compressed size and
// so every functional golden, which only a deliberate re-pin should do.
func genSource(r *rng.Source, buf []byte) {
	const args = 4
	var line []byte
	var ids [args]string
	i := 0
	for i < len(buf) {
		tmpl := sourceTemplates[r.Intn(len(sourceTemplates))]
		for k := range ids {
			ids[k] = sourceIdents[r.Intn(len(sourceIdents))]
		}
		line = append(line[:0], tmpl[0]...)
		verbs := len(tmpl) - 1
		for k := 0; k < verbs; k++ {
			line = append(line, ids[k]...)
			line = append(line, tmpl[k+1]...)
		}
		if verbs < args {
			line = append(line, "%!(EXTRA "...)
			for k := verbs; k < args; k++ {
				if k > verbs {
					line = append(line, ", "...)
				}
				line = append(line, "string="...)
				line = append(line, ids[k]...)
			}
			line = append(line, ')')
		}
		i += copy(buf[i:], line)
	}
}

// appendPadded appends n in decimal, zero-padded to width digits, as
// fmt's %0<width>d does for n >= 0.
func appendPadded(b []byte, n, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(n), 10)
	for k := len(d); k < width; k++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

var xmlTags = []string{"record", "entry", "item", "node", "field"}

// genXML emits markup with heavily repeated tags and attributes.
func genXML(r *rng.Source, buf []byte) {
	var line []byte
	i := 0
	for i < len(buf) {
		tag := xmlTags[r.Intn(len(xmlTags))]
		id := r.Intn(1000000)
		typ := xmlTags[r.Intn(len(xmlTags))]
		val := r.Intn(100)
		line = append(line[:0], '<')
		line = append(line, tag...)
		line = append(line, ` id="`...)
		line = appendPadded(line, id, 6)
		line = append(line, `" type="`...)
		line = append(line, typ...)
		line = append(line, `"><value>`...)
		line = strconv.AppendInt(line, int64(val), 10)
		line = append(line, "</value></"...)
		line = append(line, tag...)
		line = append(line, ">\n"...)
		i += copy(buf[i:], line)
	}
}

var dbStatuses = []string{"ACTIVE ", "CLOSED ", "PENDING", "ARCHIVE"}

// genDatabase emits fixed-width records: sequential keys, enum fields,
// and a few random payload bytes, like nci/osdb table dumps.
func genDatabase(r *rng.Source, buf []byte) {
	const recLen = 64
	rec := make([]byte, recLen)
	var head []byte
	key := 1000000
	i := 0
	for i < len(buf) {
		head = append(head[:0], 'K')
		head = appendPadded(head, key, 9)
		head = append(head, '|')
		head = append(head, dbStatuses[r.Intn(len(dbStatuses))]...)
		head = append(head, "|REGION"...)
		head = appendPadded(head, r.Intn(8), 2)
		head = append(head, '|')
		n := copy(rec, head)
		for k := n; k < recLen-1; k++ {
			if r.Float64() < 0.2 {
				rec[k] = byte('0' + r.Intn(10))
			} else {
				rec[k] = ' '
			}
		}
		rec[recLen-1] = '\n'
		i += copy(buf[i:], rec)
		key++
	}
}

// genBinary emits executable-like content: repeated instruction-ish
// patterns, address tables, string pools, and noise sections.
func genBinary(r *rng.Source, buf []byte) {
	sectionWeights := []float64{0.30, 0.20, 0.20, 0.15, 0.15}
	// A small pool of instruction "idioms" so code sections repeat the
	// way real compiled functions do (prologues, epilogues, mov chains).
	idioms := make([][]byte, 24)
	for k := range idioms {
		id := make([]byte, 8+r.Intn(8))
		r.Bytes(id)
		idioms[k] = id
	}
	i := 0
	for i < len(buf) {
		runLen := 200 + r.Intn(800)
		if i+runLen > len(buf) {
			runLen = len(buf) - i
		}
		switch r.Choice(sectionWeights) {
		case 0: // instruction-like: repeated idioms with occasional operands
			for k := 0; k < runLen; {
				id := idioms[r.Intn(len(idioms))]
				n := copy(buf[i+k:i+runLen], id)
				k += n
				if k < runLen && r.Float64() < 0.3 {
					buf[i+k] = byte(r.Intn(256))
					k++
				}
			}
		case 1: // address table: small deltas, constant high bytes
			base := uint32(r.Uint64()) & 0x00ffffff
			for k := 0; k+4 <= runLen; k += 4 {
				base += uint32(r.Intn(16) * 8)
				buf[i+k] = byte(base)
				buf[i+k+1] = byte(base >> 8)
				buf[i+k+2] = byte(base >> 16)
				buf[i+k+3] = 0x00
			}
		case 2: // string pool
			for k := 0; k < runLen; {
				s := words[r.Intn(len(words))]
				n := copy(buf[i+k:i+runLen], s)
				k += n
				if k < runLen {
					buf[i+k] = 0
					k++
				}
			}
		case 3: // zero padding between sections
			for k := 0; k < runLen; k++ {
				buf[i+k] = 0
			}
		default: // noise (packed/encrypted resources)
			r.Bytes(buf[i : i+runLen])
		}
		i += runLen
	}
}

// genMedical emits smooth sensor-like data: a random walk per 2-byte
// sample. Neighboring samples correlate but bytes rarely repeat in
// 4-byte runs, giving the weak compressibility of mr/x-ray.
func genMedical(r *rng.Source, buf []byte) {
	v := 2048.0
	for i := 0; i+2 <= len(buf); i += 2 {
		v += r.Norm(0, 10)
		if v < 0 {
			v = 0
		}
		if v > 4095 {
			v = 4095
		}
		// Sensors quantize; coarse steps make short byte runs repeat,
		// giving the ~1.1-1.2x LZ4 ratio of mr/x-ray.
		s := (uint16(v) / 8) * 8
		buf[i] = byte(s)
		buf[i+1] = byte(s >> 8)
	}
}

// genRandom emits incompressible bytes.
func genRandom(r *rng.Source, buf []byte) { r.Bytes(buf) }

// genZero leaves the buffer zeroed.
func genZero(_ *rng.Source, _ []byte) {}
