package bstc_test

import (
	"fmt"

	"bstc"
)

// The paper's §5.4 worked example: train on Table 1, classify the query
// that expresses g1, g4 and g5.
func ExampleTrain() {
	data := bstc.PaperTable1()
	cl, err := bstc.Train(data, nil)
	if err != nil {
		panic(err)
	}
	q := bstc.GeneSetOf(data.NumGenes(), 0, 3, 4)
	values := cl.Values(q)
	fmt.Printf("Cancer  %.3f\n", values[0])
	fmt.Printf("Healthy %.3f\n", values[1])
	fmt.Println("classified as", data.ClassNames[cl.Classify(q)])
	// Output:
	// Cancer  0.750
	// Healthy 0.375
	// classified as Cancer
}

// Explanations justify a classification with the atomic cell rules the
// query satisfies (§5.3.2).
func ExampleClassifier_Explain() {
	data := bstc.PaperTable1()
	cl, err := bstc.Train(data, nil)
	if err != nil {
		panic(err)
	}
	q := bstc.GeneSetOf(data.NumGenes(), 0, 3, 4)
	for _, e := range cl.Explain(q, 0, 1, 0) { // fully satisfied rules only
		fmt.Printf("%.0f%% via %s: %s\n",
			100*e.Satisfaction,
			data.SampleNames[e.SampleIndex],
			bstc.RenderRule(e.Rule.Antecedent, data.GeneNames))
	}
	// Output:
	// 100% via s1: g1
	// 100% via s2: g1
}

// Mining the top supported (MC)²BARs (Algorithm 3) recovers the paper's
// flagship conjunctive rule g1 AND g3 ⇒ Cancer.
func ExampleBST_MineMCMCBAR() {
	data := bstc.PaperTable1()
	bst, err := bstc.NewBST(data, 0) // T(Cancer)
	if err != nil {
		panic(err)
	}
	top := bst.MineMCMCBAR(1, bstc.MineOptions{})[0]
	fmt.Println("support:", top.Support.Count(), "samples")
	fmt.Println("rule:", bstc.RenderRule(top.Rule.Antecedent, data.GeneNames), "=> Cancer")
	// Output:
	// support: 2 samples
	// rule: (g1 AND g3) => Cancer
}

// The gene-row BAR of Algorithm 2, matching the paper's Figure 2 for g2.
func ExampleBST_RowBAR() {
	data := bstc.PaperTable1()
	bst, err := bstc.NewBST(data, 0)
	if err != nil {
		panic(err)
	}
	rule := bst.RowBAR(1) // gene g2
	fmt.Println(bstc.RenderRule(rule.Antecedent, data.GeneNames), "=> Cancer")
	// Output:
	// (g2 AND (g1 OR -g3 OR -g5)) => Cancer
}

// IBRG bounds of §4.2: the rule group supported by exactly {s2}.
func ExampleBST_MineIBRGLowerBounds() {
	data := bstc.PaperTable1()
	bst, err := bstc.NewBST(data, 0)
	if err != nil {
		panic(err)
	}
	s2 := bstc.GeneSetOf(bst.NumColumns(), 1) // column position of s2
	for _, lb := range bst.MineIBRGLowerBounds(s2, 10) {
		car := bstc.CAR{Genes: lb, Class: 0}
		fmt.Println(bstc.RenderRule(car.Expr(), data.GeneNames))
	}
	// Output:
	// (g1 AND g6)
	// (g3 AND g6)
}
