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
	root := rng.New(seed)
	c := &Corpus{r: root.Split()}
	gens := [numClasses]func(*rng.Source, []byte){
		Text:     genText,
		Source:   genSource,
		XML:      genXML,
		Database: genDatabase,
		Binary:   genBinary,
		Medical:  genMedical,
		Random:   genRandom,
		Zero:     genZero,
	}
	for cl := Class(0); cl < numClasses; cl++ {
		buf := make([]byte, cfg.bytesPerClass)
		gens[cl](root.Split(), buf)
		c.streams[cl] = buf
	}
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

// Block returns a fresh buffer of the given size sampled from the class
// mix at a random stream offset.
func (c *Corpus) Block(size int) []byte {
	cl := c.classes[c.r.Choice(c.weights)]
	return c.BlockOf(cl, size)
}

// BlockOf samples a block from one specific class.
func (c *Corpus) BlockOf(class Class, size int) []byte {
	if class < 0 || class >= numClasses {
		panic(fmt.Sprintf("corpus: invalid class %d", class))
	}
	stream := c.streams[class]
	if size <= 0 {
		return nil
	}
	out := make([]byte, size)
	off := c.r.Intn(len(stream))
	n := copy(out, stream[off:])
	for n < size { // wrap around
		n += copy(out[n:], stream)
	}
	return out
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

// genText emits Zipf-weighted English-like prose.
func genText(r *rng.Source, buf []byte) {
	w := make([]float64, len(words))
	for i := range w {
		w[i] = 1.0 / float64(i+1) // Zipf
	}
	i := 0
	col := 0
	for i < len(buf) {
		word := words[r.Choice(w)]
		for k := 0; k < len(word) && i < len(buf); k++ {
			buf[i] = word[k]
			i++
		}
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

// genSource emits C-like source code.
func genSource(r *rng.Source, buf []byte) {
	idents := []string{"ret", "buf", "len", "ctx", "req", "err", "ptr", "idx", "off", "dev"}
	templates := []string{
		"static int %s_handle(struct %s *%s, int %s)\n{\n",
		"\tif (%s->%s == NULL)\n\t\treturn -EINVAL;\n",
		"\t%s = %s_alloc(%s, sizeof(*%s));\n",
		"\tfor (%s = 0; %s < %s; %s++)\n",
		"\t\t%s[%s] = %s(%s);\n",
		"\treturn %s;\n}\n\n",
		"/* %s: process one %s from the %s queue */\n",
	}
	i := 0
	for i < len(buf) {
		tmpl := templates[r.Intn(len(templates))]
		args := make([]interface{}, 4)
		for k := range args {
			args[k] = idents[r.Intn(len(idents))]
		}
		s := fmt.Sprintf(tmpl, args...)
		n := copy(buf[i:], s)
		i += n
	}
}

// genXML emits markup with heavily repeated tags and attributes.
func genXML(r *rng.Source, buf []byte) {
	tags := []string{"record", "entry", "item", "node", "field"}
	i := 0
	for i < len(buf) {
		tag := tags[r.Intn(len(tags))]
		s := fmt.Sprintf("<%s id=\"%06d\" type=\"%s\"><value>%d</value></%s>\n",
			tag, r.Intn(1000000), tags[r.Intn(len(tags))], r.Intn(100), tag)
		i += copy(buf[i:], s)
	}
}

// genDatabase emits fixed-width records: sequential keys, enum fields,
// and a few random payload bytes, like nci/osdb table dumps.
func genDatabase(r *rng.Source, buf []byte) {
	const recLen = 64
	statuses := []string{"ACTIVE ", "CLOSED ", "PENDING", "ARCHIVE"}
	rec := make([]byte, recLen)
	key := 1000000
	i := 0
	for i < len(buf) {
		s := fmt.Sprintf("K%09d|%s|REGION%02d|", key, statuses[r.Intn(len(statuses))], r.Intn(8))
		n := copy(rec, s)
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
