// Quickstart walks the paper's running example end to end: build BSTs from
// the Table 1 training data, classify the §5.4 query sample, and print the
// rule-based evidence behind the decision.
package main

import (
	"fmt"
	"log"

	"bstc"
)

func main() {
	// Table 1: five training samples, six genes, classes Cancer/Healthy.
	data := bstc.PaperTable1()
	fmt.Println(data.Summary("Running example"))

	// Training builds one Boolean Structure Table per class — polynomial
	// time and space, no parameters to tune.
	cl, err := bstc.Train(data, nil)
	if err != nil {
		log.Fatal(err)
	}

	// The §5.4 query: g1, g4 and g5 expressed; g2, g3, g6 not.
	q := bstc.GeneSetOf(data.NumGenes(), 0, 3, 4)

	// One BSTCE pass per class yields the values, the class (Algorithm 6)
	// and §8's confidence heuristic together.
	values := make([]float64, data.NumClasses())
	pred, conf := cl.DecideInto(values, q)
	for ci, v := range values {
		fmt.Printf("BSTCE(T(%s), Q) = %.3f\n", data.ClassNames[ci], v)
	}
	fmt.Printf("query classified as %s (confidence %.2f)\n", data.ClassNames[pred], conf)

	// §5.3.2: justify the classification with the atomic cell rules the
	// query satisfies at level >= 0.5.
	fmt.Println("\nsupporting cell rules (satisfaction >= 0.5):")
	for _, e := range cl.Explain(q, pred, 0.5, 0) {
		fmt.Printf("  sat=%.2f via %s: %s\n",
			e.Satisfaction,
			data.SampleNames[e.SampleIndex],
			bstc.RenderRule(e.Rule.Antecedent, data.GeneNames))
	}
}
