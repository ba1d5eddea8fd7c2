package trace

import "testing"

// TestCallTableRows: each function has one row, a field appears at most once
// in a layout, a run's count comes before it and is an integer, and only a
// layout's last token is optional. A side table's byte per entry can name
// every row.
func TestCallTableRows(t *testing.T) {
	if len(Calls) > 255 {
		t.Errorf("%d rows; a side table names at most 255", len(Calls))
	}
	seen := map[string]bool{}
	for i, c := range Calls {
		if int(c.row) != i {
			t.Errorf("%s: row %d, at %d in the table", c.Name, c.row, i)
		}
		if seen[c.Name] {
			t.Errorf("%s has two rows", c.Name)
		}
		seen[c.Name] = true
		have := map[Field]bool{}
		for i, e := range c.Elems {
			if e.By != noField && !have[e.By] {
				t.Errorf("%s: %s is counted by a field that does not come before it", c.Name, e.Name)
			}
			if e.By != noField && !e.By.Integer() {
				t.Errorf("%s: %s is counted by a name", c.Name, e.Name)
			}
			if e.Optional && i != len(c.Elems)-1 {
				t.Errorf("%s: optional %s is not the last token", c.Name, e.Name)
			}
			if e.Field != noField && have[e.Field] {
				t.Errorf("%s: %s appears twice", c.Name, e.Name)
			}
			have[e.Field] = true
		}
	}
}
