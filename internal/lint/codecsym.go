package lint

import (
	"fmt"
	"sort"
)

// codecSymAnalyzer checks the encode/decode symmetry of the module's
// hand-rolled binary codecs (the WAL frame payloads, the checkpoint
// blob, the tsdb block format). A //mantra:codec pair declares the two
// halves; the analyzer compares their extracted field-flow sequences —
// the ordered target-struct fields the encoder feeds into append calls
// against the ordered fields the decoder assigns from reads — and
// reports any asymmetry: a field written but never read back, a field
// read that is never written, or the same fields consumed in a
// different order.
//
// Each pair (and each //mantra:codec type pin) also carries a shape
// digest. The digest folds in the format's magic/version constant, so
// any change to the serialized shape without a deliberate magic bump is
// a finding: the wire format cannot drift silently under a version
// number that claims compatibility.
//
// The analysis is module-wide (a pair's halves may live in different
// packages) and runs over the per-package fact summaries.
var codecSymAnalyzer = &Analyzer{
	Name: "codecsym",
	Doc:  "encode/decode halves of a //mantra:codec pair disagree about fields, order, or pinned shape",
}

// codecPair collects one pair name's declarations across the module.
type codecPair struct {
	encode, decode []*FuncSum
	pins           []*StructSum
}

func codecSymFindings(idx *sumIndex, add func(Finding)) {
	pairs := make(map[string]*codecPair)
	at := func(name string) *codecPair {
		if pairs[name] == nil {
			pairs[name] = &codecPair{}
		}
		return pairs[name]
	}
	for _, name := range idx.names {
		f := idx.funcs[name]
		if f.Codec == nil || f.Codec.Pair == "" {
			continue
		}
		switch f.Codec.Role {
		case "encode":
			at(f.Codec.Pair).encode = append(at(f.Codec.Pair).encode, f)
		case "decode":
			at(f.Codec.Pair).decode = append(at(f.Codec.Pair).decode, f)
		}
	}
	var structNames []string
	for name := range idx.structs {
		structNames = append(structNames, name)
	}
	sort.Strings(structNames)
	for _, name := range structNames {
		st := idx.structs[name]
		if st.Codec != nil && st.Codec.Pair != "" {
			at(st.Codec.Pair).pins = append(at(st.Codec.Pair).pins, st)
		}
	}

	names := make([]string, 0, len(pairs))
	for name := range pairs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		checkCodecPair(name, pairs[name], add)
	}
}

func checkCodecPair(name string, pair *codecPair, add func(Finding)) {
	emit := func(pos Pos, format string, args ...any) {
		add(Finding{Pos: posOf(pos), Check: "codecsym",
			Message: fmt.Sprintf(format, args...)})
	}

	if len(pair.pins) > 0 && (len(pair.encode) > 0 || len(pair.decode) > 0) {
		emit(pair.pins[0].Codec.Pos,
			"codec pair %s has both function markers and a type pin; declare either an encode/decode pair or a pinned type shape, not both", quote(name))
		return
	}

	// Type-pin pairs: the digest covers the declared field list.
	if len(pair.pins) > 0 {
		for _, extra := range pair.pins[1:] {
			emit(extra.Codec.Pos,
				"codec pair %s pinned on more than one type (also on %s); one pin per pair", quote(name), pair.pins[0].Name)
		}
		pin := pair.pins[0]
		parts := make([]string, 0, len(pin.Fields))
		for _, f := range pin.Fields {
			parts = append(parts, f.Name+" "+f.Type)
		}
		digest := shapeDigest(parts, pin.Codec.MagicValue)
		switch {
		case pin.Codec.Shape == "":
			emit(pin.Codec.Pos,
				"codec pair %s has no pinned shape; pin the current serialized shape of %s with shape=%s", quote(name), pin.Name, digest)
		case pin.Codec.Shape != digest:
			emit(pin.Codec.Pos,
				"serialized shape of %s changed (computed %s, pinned %s); if the wire format moved, bump %s and re-pin shape=%s",
				quote(name), digest, pin.Codec.Shape, magicDesc(pin.Codec), digest)
		}
		return
	}

	// Function pairs.
	if len(pair.encode) > 1 {
		for _, extra := range pair.encode[1:] {
			emit(extra.Codec.Pos,
				"codec pair %s has more than one encode half (also %s); one function per role", quote(name), pair.encode[0].Short)
		}
	}
	if len(pair.decode) > 1 {
		for _, extra := range pair.decode[1:] {
			emit(extra.Codec.Pos,
				"codec pair %s has more than one decode half (also %s); one function per role", quote(name), pair.decode[0].Short)
		}
	}
	switch {
	case len(pair.encode) == 0 && len(pair.decode) > 0:
		dec := pair.decode[0]
		emit(dec.Codec.Pos,
			"codec pair %s has a decode half (%s) but no encode half; mark the encoder with //mantra:codec pair=%s role=encode", quote(name), dec.Short, name)
		return
	case len(pair.decode) == 0 && len(pair.encode) > 0:
		enc := pair.encode[0]
		emit(enc.Codec.Pos,
			"codec pair %s has an encode half (%s) but no decode half; mark the decoder with //mantra:codec pair=%s role=decode", quote(name), enc.Short, name)
		return
	case len(pair.encode) == 0:
		return
	}
	enc, dec := pair.encode[0], pair.decode[0]

	if enc.Codec.TypeFull != "" && dec.Codec.TypeFull != "" && enc.Codec.TypeFull != dec.Codec.TypeFull {
		emit(dec.Codec.Pos,
			"codec pair %s halves target different types (encode %s, decode %s)", quote(name), enc.Codec.TypeFull, dec.Codec.TypeFull)
		return
	}
	if enc.Codec.MagicValue != "" && dec.Codec.MagicValue != "" && enc.Codec.MagicValue != dec.Codec.MagicValue {
		emit(dec.Codec.Pos,
			"codec pair %s halves resolve different magic values (encode %s=%s, decode %s=%s); both halves must version against one constant",
			quote(name), enc.Codec.Magic, enc.Codec.MagicValue, dec.Codec.Magic, dec.Codec.MagicValue)
	}
	if len(enc.FieldFlow) == 0 {
		emit(enc.Codec.Pos,
			"encode half %s of pair %s has no extractable field events for %s; route every field through a call argument so the order is checkable", enc.Short, quote(name), enc.Codec.TypeFull)
		return
	}
	if len(dec.FieldFlow) == 0 {
		emit(dec.Codec.Pos,
			"decode half %s of pair %s has no extractable field events for %s; assign every field from a reader call so the order is checkable", dec.Short, quote(name), dec.Codec.TypeFull)
		return
	}

	// Fold each side to the other's granularity, then compare membership
	// and order. Findings anchor at the decode marker — the decoder is
	// the half that silently produces wrong values on drift — and name
	// the encode site for navigation.
	encFold := foldAgainst(enc.FieldFlow, dec.FieldFlow)
	decFold := foldAgainst(dec.FieldFlow, enc.FieldFlow)
	encSet := make(map[string]bool, len(encFold))
	for _, p := range encFold {
		encSet[p] = true
	}
	decSet := make(map[string]bool, len(decFold))
	for _, p := range decFold {
		decSet[p] = true
	}
	encAt := pathBase(enc.Codec.Pos.File)
	asym := false
	for _, p := range encFold {
		if !decSet[p] {
			asym = true
			emit(dec.Codec.Pos,
				"codec pair %s: encode (%s, %s) writes %s but decode %s never reads it", quote(name), enc.Short, encAt, p, dec.Short)
		}
	}
	for _, p := range decFold {
		if !encSet[p] {
			asym = true
			emit(dec.Codec.Pos,
				"codec pair %s: decode %s reads %s but encode (%s, %s) never writes it", quote(name), dec.Short, p, enc.Short, encAt)
		}
	}
	if !asym {
		for i := range encFold {
			if encFold[i] != decFold[i] {
				emit(dec.Codec.Pos,
					"codec pair %s: field order diverges at position %d — encode (%s) writes %s, decode reads %s; the wire bytes will be misparsed silently",
					quote(name), i+1, encAt, encFold[i], decFold[i])
				break
			}
		}
	}

	// Shape pin: the digest fingerprints the raw encode order plus the
	// magic value, so shape drift without a magic bump cannot pass.
	parts := make([]string, 0, len(enc.FieldFlow))
	for _, ev := range enc.FieldFlow {
		parts = append(parts, ev.Path)
	}
	digest := shapeDigest(parts, enc.Codec.MagicValue)
	switch {
	case enc.Codec.Shape == "":
		emit(enc.Codec.Pos,
			"codec pair %s has no pinned shape; pin the current encode order with shape=%s", quote(name), digest)
	case enc.Codec.Shape != digest:
		emit(enc.Codec.Pos,
			"serialized shape of %s changed (computed %s, pinned %s); if the wire format moved, bump %s and re-pin shape=%s",
			quote(name), digest, enc.Codec.Shape, magicDesc(enc.Codec), digest)
	}
}

// magicDesc names the pair's version constant in bump messages.
func magicDesc(mark *CodecMark) string {
	if mark.Magic != "" {
		return mark.Magic
	}
	return "the format version constant"
}
