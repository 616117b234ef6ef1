package repro.baseline

import repro.{SparkSpec, TestSpaces}
import repro.core.{BruteForce, GraphDOD, VPTree}
import repro.graph.ProximityGraph

/** All four scan-based baselines must be exact on every scenario. */
class BaselinesSpec extends SparkSpec {

  for (s <- TestSpaces.scenarios()) {
    lazy val truth = BruteForce.outliers(s.space, s.r, s.k).toSeq

    test(s"${s.name}: Nested-loop is exact") {
      assert(NestedLoop.run(spark, s.space, s.r, s.k).outliers.toSeq == truth)
    }

    test(s"${s.name}: SNIF is exact") {
      assert(SNIF.run(spark, s.space, s.r, s.k).outliers.toSeq == truth)
    }

    test(s"${s.name}: DOLPHIN is exact") {
      assert(Dolphin.run(spark, s.space, s.r, s.k).outliers.toSeq == truth)
    }

    test(s"${s.name}: VP-tree DOD is exact") {
      val tree = VPTree.build(s.space, 16, seed = 2)
      assert(VPTreeDOD.run(spark, s.space, s.r, s.k, tree).outliers.toSeq == truth)
    }
  }

  test("SNIF is exact across seeds (random cluster centers)") {
    val s = TestSpaces.scenarios().head
    val truth = BruteForce.outliers(s.space, s.r, s.k).toSeq
    for (seed <- 1 to 5) {
      assert(SNIF.run(spark, s.space, s.r, s.k, seed = seed).outliers.toSeq == truth, s"seed=$seed")
    }
  }

  test("DOLPHIN is exact across pInlier settings") {
    val s = TestSpaces.scenarios().head
    val truth = BruteForce.outliers(s.space, s.r, s.k).toSeq
    for (p <- Seq(0.0, 0.05, 0.5, 1.0)) {
      assert(Dolphin.run(spark, s.space, s.r, s.k, pInlier = p).outliers.toSeq == truth, s"p=$p")
    }
  }

  test("baselines agree under varied r and k") {
    val s = TestSpaces.scenarios()(1)
    for ((rf, k) <- Seq((0.5, 3), (1.5, 20))) {
      val r = s.r * rf
      val truth = BruteForce.outliers(s.space, r, k).toSeq
      assert(NestedLoop.run(spark, s.space, r, k).outliers.toSeq == truth)
      assert(SNIF.run(spark, s.space, r, k).outliers.toSeq == truth)
      assert(Dolphin.run(spark, s.space, r, k).outliers.toSeq == truth)
      val tree = VPTree.build(s.space, 16, seed = 3)
      assert(VPTreeDOD.run(spark, s.space, r, k, tree).outliers.toSeq == truth)
    }
  }

  test("index size accounting: nested-loop none, SNIF/DOLPHIN/VP-tree positive") {
    val s = TestSpaces.scenarios().head
    assert(NestedLoop.run(spark, s.space, s.r, s.k).indexBytes == 0L)
    assert(SNIF.run(spark, s.space, s.r, s.k).indexBytes > 0L)
    assert(Dolphin.run(spark, s.space, s.r, s.k).indexBytes > 0L)
    val tree = VPTree.build(s.space, 16, seed = 4)
    assert(VPTreeDOD.run(spark, s.space, s.r, s.k, tree).indexBytes == tree.sizeBytes)
  }

  test("every baseline and BruteForce.outliers reject a bad r or k as GraphDOD.detect does") {
    val s = TestSpaces.scenarios().head
    val tree = VPTree.build(s.space, 16, seed = 5)
    val g = ProximityGraph.plain(Array.fill(s.space.n)(Array.empty[Int]))
    val bad = Seq(Double.NaN, -1.0, Double.PositiveInfinity, Double.NegativeInfinity).map(r => (r, s.k)) :+
      ((s.r, 0))
    for ((r, k) <- bad) {
      val expected = intercept[IllegalArgumentException](GraphDOD.detect(spark, s.space, g, r, k)).getMessage
      val runs: Seq[(String, () => Any)] = Seq(
        "Nested-loop" -> (() => NestedLoop.run(spark, s.space, r, k)),
        "SNIF" -> (() => SNIF.run(spark, s.space, r, k)),
        "DOLPHIN" -> (() => Dolphin.run(spark, s.space, r, k)),
        "VP-tree DOD" -> (() => VPTreeDOD.run(spark, s.space, r, k, tree)),
        "BruteForce.outliers" -> (() => BruteForce.outliers(s.space, r, k)),
      )
      for ((name, run) <- runs)
        assert(intercept[IllegalArgumentException](run()).getMessage == expected, s"$name r=$r k=$k")
    }
  }

  test("results are invariant to the partition count") {
    val s = TestSpaces.scenarios()(3)
    val reference = NestedLoop.run(spark, s.space, s.r, s.k, partitions = 1).outliers.toSeq
    for (p <- Seq(2, 7, 16)) {
      assert(NestedLoop.run(spark, s.space, s.r, s.k, partitions = p).outliers.toSeq == reference)
    }
  }
}
