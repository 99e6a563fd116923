// Package enum gives the experiment enums one text form. Each enum
// declares a Table of tokens once, and the table is its only parser,
// encoder and help list: command-line flags (internal/campaign's
// binder), JSON grid specs and result records all go through it.
//
// Every value has a canonical token, the short lowercase spelling used
// on the command line and in JSON, and optional aliases. Parsing is
// case-folded and ignores surrounding spaces, so an enum's display
// form ("CDNA", "RiceNIC", "transmit") parses when it is a token or an
// alias. Out-of-range values, such as those in a failed experiment's
// record, encode as their decimal value and decode from it, so every
// record stays serializable, while flags reject decimals and unknown
// words alike.
package enum

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// Table is the token table of one enum whose values run from 0 up.
// A Table is read-only once New returns it.
type Table[T ~int] struct {
	pkg, what, typ string
	tokens         [][]string // per value: canonical token, then aliases
	index          map[string]T
}

// New builds the table of an enum declared in package pkg; what names
// the enum in errors ("mode", "fault"). Each value's entry is its
// canonical token followed by its aliases, separated by '|': entry i
// names value i. An empty alias ("bulk|") lets the empty string parse.
func New[T ~int](pkg, what string, values ...string) *Table[T] {
	t := &Table[T]{pkg: pkg, what: what, typ: reflect.TypeFor[T]().Name(), index: map[string]T{}}
	for v, entry := range values {
		toks := strings.Split(entry, "|")
		for _, tok := range toks {
			if _, dup := t.index[tok]; dup || tok != strings.ToLower(strings.TrimSpace(tok)) {
				panic(fmt.Sprintf("enum: bad or duplicate %s token %q", what, tok))
			}
			t.index[tok] = T(v)
		}
		t.tokens = append(t.tokens, toks)
	}
	return t
}

// Tokens returns v's canonical token followed by its aliases, or nil
// for an out-of-range value.
func (t *Table[T]) Tokens(v T) []string {
	if v < 0 || int(v) >= len(t.tokens) {
		return nil
	}
	return t.tokens[v]
}

// List returns the canonical tokens as help text shows them:
// "a | b | c".
func (t *Table[T]) List() string {
	canon := make([]string, len(t.tokens))
	for i, toks := range t.tokens {
		canon[i] = toks[0]
	}
	return strings.Join(canon, " | ")
}

// Parse returns the value a token or alias names, ignoring case and
// surrounding spaces.
func (t *Table[T]) Parse(s string) (T, error) {
	if v, ok := t.index[strings.ToLower(strings.TrimSpace(s))]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("%s: unknown %s %q (want %s)", t.pkg, t.what, s, t.List())
}

// String returns v's canonical token, or "Type(n)" for an out-of-range
// value; it is the String method of enums displayed by their token.
func (t *Table[T]) String(v T) string {
	if toks := t.Tokens(v); toks != nil {
		return toks[0]
	}
	return fmt.Sprintf("%s(%d)", t.typ, int(v))
}

// MarshalText encodes v as its canonical token, or as its decimal
// value when it is out of range.
func (t *Table[T]) MarshalText(v T) ([]byte, error) {
	if toks := t.Tokens(v); toks != nil {
		return []byte(toks[0]), nil
	}
	return []byte(strconv.Itoa(int(v))), nil
}

// UnmarshalText decodes a token, an alias or the decimal form
// MarshalText falls back to.
func (t *Table[T]) UnmarshalText(b []byte, v *T) error {
	if n, err := strconv.Atoi(string(b)); err == nil {
		*v = T(n)
		return nil
	}
	p, err := t.Parse(string(b))
	if err != nil {
		return err
	}
	*v = p
	return nil
}
