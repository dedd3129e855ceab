package index_test

import (
	"fmt"

	"mqdp/internal/index"
)

func Example() {
	ix := index.New()
	docs := []index.Doc{
		{ID: 1, Time: 10, Text: "obama speaks on the economy"},
		{ID: 2, Time: 20, Text: "sports roundup tonight"},
		{ID: 3, Time: 30, Text: "senate reacts to obama plan"},
	}
	for _, d := range docs {
		if err := ix.Add(d); err != nil {
			panic(err)
		}
	}
	for _, pos := range ix.AnyQuery([]string{"obama"}, 0, 100) {
		fmt.Println(ix.Doc(pos).ID)
	}
	fmt.Println("economy or sports:", len(ix.AnyQuery([]string{"economy", "sports"}, 0, 100)))
	// Output:
	// 1
	// 3
	// economy or sports: 2
}
