package registry

import (
	"reflect"
	"testing"
)

type fruit struct{ name string }

func (f fruit) Name() string { return f.name }

var fruits = []fruit{{"apple"}, {"cherry"}, {"banana"}}

func TestNamesKeepsRegistryOrder(t *testing.T) {
	if got, want := Names(fruits, fruit.Name), []string{"apple", "cherry", "banana"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want %v (registry order, not sorted)", got, want)
	}
	if got := Names([]fruit{}, fruit.Name); len(got) != 0 {
		t.Fatalf("Names of an empty registry = %v", got)
	}
}

func TestLookup(t *testing.T) {
	cases := []struct {
		name, def string
		want      string // the value found, or
		err       string // the whole error text
	}{
		{name: "apple", want: "apple"},
		{name: "banana", def: "apple", want: "banana"},
		{name: "", def: "cherry", want: "cherry"},
		{name: "", def: "", err: `unknown fruit "" (want apple, cherry, banana)`},
		{name: "durian", def: "apple", err: `unknown fruit "durian" (want apple, cherry, banana)`},
		{name: "Apple", err: `unknown fruit "Apple" (want apple, cherry, banana)`},
		{name: "", def: "durian", err: `unknown fruit "durian" (want apple, cherry, banana)`},
	}
	for _, tc := range cases {
		got, err := Lookup("fruit", tc.name, tc.def, fruits, fruit.Name)
		switch {
		case tc.err != "":
			if err == nil || err.Error() != tc.err || got != (fruit{}) {
				t.Errorf("Lookup(%q, def %q) = %v, %v; want the zero value and %q", tc.name, tc.def, got, err, tc.err)
			}
		case err != nil || got.name != tc.want:
			t.Errorf("Lookup(%q, def %q) = %v, %v; want %q", tc.name, tc.def, got, err, tc.want)
		}
	}
}
