package kvstore

import (
	"errors"
	"slices"
	"strings"
)

// Packed is one version's contents in the store's at-rest encoding, the
// same bytes the disk engine's WAL carries as a write record's value
// (DESIGN.md §5, §14):
//
//	uvarint(nattrs) | nattrs × (uvarint(len) name, uvarint(len) value)
//
// with names strictly ascending, so equal Values pack to equal strings and
// byte equality is value equality. A Packed is immutable: the store keeps
// one per version (a one-attribute version retains about 55 B in all,
// where a Value map costs about 300 B), decodes it on read, and hands it
// to the engine, which copies it into its record verbatim.
type Packed string

// Pack encodes v. A nil or empty Value packs to the one-byte empty encoding,
// never to "".
func Pack(v Value) Packed {
	var stack [8]string
	names := stack[:0]
	size := uvarintLen(uint64(len(v)))
	for k, val := range v {
		names = append(names, k)
		size += pairLen(k, val)
	}
	slices.Sort(names)
	var b strings.Builder
	b.Grow(size)
	putUvarint(&b, uint64(len(names)))
	for _, k := range names {
		writePair(&b, k, v[k])
	}
	return Packed(b.String())
}

// PackAttr packs the one-attribute value {name: val} without building a
// map; the replicated-log apply path writes every data row this way.
func PackAttr(name, val string) Packed {
	var b strings.Builder
	b.Grow(1 + pairLen(name, val))
	b.WriteByte(1)
	writePair(&b, name, val)
	return Packed(b.String())
}

func pairLen(name, val string) int {
	return uvarintLen(uint64(len(name))) + len(name) + uvarintLen(uint64(len(val))) + len(val)
}

func writePair(b *strings.Builder, name, val string) {
	putUvarint(b, uint64(len(name)))
	b.WriteString(name)
	putUvarint(b, uint64(len(val)))
	b.WriteString(val)
}

// ParsePacked validates b as a packed value (well-formed lengths, names
// strictly ascending, no trailing bytes) and returns it as a Packed. The
// disk engine uses it to lift a write record's value out of the WAL.
func ParsePacked(b []byte) (Packed, error) {
	p := Packed(b)
	n, rest, ok := p.count()
	if !ok || n > uint64(len(rest)) {
		return "", errors.New("kvstore: packed value: bad attribute count")
	}
	prev := ""
	for i := uint64(0); i < n; i++ {
		var name string
		if name, rest, ok = cutField(rest); !ok {
			return "", errors.New("kvstore: packed value: bad attribute name")
		}
		if i > 0 && name <= prev {
			return "", errors.New("kvstore: packed value: attributes out of order")
		}
		prev = name
		if _, rest, ok = cutField(rest); !ok {
			return "", errors.New("kvstore: packed value: bad attribute value")
		}
	}
	if rest != "" {
		return "", errors.New("kvstore: packed value: trailing bytes")
	}
	return p, nil
}

// Value decodes p into a fresh map the caller owns. The attribute strings
// share p's memory, so decoding costs one map allocation.
func (p Packed) Value() Value {
	n, rest, ok := p.count()
	if !ok {
		return Value{}
	}
	v := make(Value, n)
	for i := uint64(0); i < n; i++ {
		var name, val string
		if name, rest, ok = cutField(rest); !ok {
			break
		}
		if val, rest, ok = cutField(rest); !ok {
			break
		}
		v[name] = val
	}
	return v
}

// Get returns attribute attr of p, "" when absent, without decoding the
// whole value.
func (p Packed) Get(attr string) string {
	n, rest, ok := p.count()
	for i := uint64(0); ok && i < n; i++ {
		var name, val string
		if name, rest, ok = cutField(rest); !ok {
			break
		}
		if val, rest, ok = cutField(rest); !ok || name > attr {
			break
		}
		if name == attr {
			return val
		}
	}
	return ""
}

func (p Packed) count() (uint64, string, bool) {
	n, w := uvarint(string(p))
	if w <= 0 {
		return 0, "", false
	}
	return n, string(p[w:]), true
}

// cutField splits one length-prefixed string off the front of s.
func cutField(s string) (string, string, bool) {
	n, w := uvarint(s)
	if w <= 0 || n > uint64(len(s)-w) {
		return "", s, false
	}
	end := w + int(n)
	return s[w:end], s[end:], true
}

// uvarint is binary.Uvarint over a string: the value and the number of
// bytes read, or w <= 0 for a truncated or overlong encoding.
func uvarint(s string) (uint64, int) {
	var x uint64
	var shift uint
	for i := 0; i < len(s) && i < 10; i++ {
		c := s[i]
		if c < 0x80 {
			if i == 9 && c > 1 {
				return 0, -(i + 1)
			}
			return x | uint64(c)<<shift, i + 1
		}
		x |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, 0
}

func putUvarint(b *strings.Builder, x uint64) {
	for x >= 0x80 {
		b.WriteByte(byte(x) | 0x80)
		x >>= 7
	}
	b.WriteByte(byte(x))
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
