package repro.graph

import repro.{SparkSpec, TestSpaces}
import repro.core.{BruteForce, CountingSpace, DpEditDistance, LocalRunner, MetricSpace, SparkRunner, StringSpace,
  VectorMetric, VectorSpace}

/** The full MRPG pipeline: the three §5 properties, connectivity, stats. */
class MRPGSpec extends SparkSpec {

  private val runner = new LocalRunner(4)
  private lazy val space = TestSpaces.clustered(600, 6, VectorMetric.L2, seed = 51, outlierFrac = 0.03)
  private lazy val (graph, stats) = MRPG.build(space, 8, runner, seed = 5, maxIters = 5)
  private lazy val (basicGraph, _) = MRPG.build(space, 8, runner, seed = 5, basic = true, maxIters = 5)

  test("Property 1: every vertex keeps links to (approximate) nearest neighbors") {
    val rng = new scala.util.Random(52)
    val linkD = (0 until 300).map { _ =>
      val v = rng.nextInt(space.n)
      val es = graph.adj(v)
      space.dist(v, es(rng.nextInt(es.length)))
    }
    val randD = (0 until 300).map(_ => space.dist(rng.nextInt(space.n), rng.nextInt(space.n)))
    assert(linkD.sum / linkD.size < 0.5 * randD.sum / randD.size)
  }

  test("Property 2 infrastructure: pivots exist and are a small fraction") {
    val pivots = graph.isPivot.count(identity)
    assert(pivots > 0)
    assert(pivots < space.n / 2)
  }

  test("Property 3: exact lists exist, have length K' = 4K, and are exact") {
    assert(graph.exactK == 32)
    val withLists = (0 until space.n).filter(graph.hasExactList)
    assert(withLists.nonEmpty)
    withLists.take(10).foreach { v =>
      assert(graph.exactLists(v).toSeq == BruteForce.knn(space, v, 32).toSeq)
    }
  }

  test("MRPG-basic exact lists have length K (not K')") {
    assert(basicGraph.exactK == 8)
    val v = (0 until space.n).find(basicGraph.hasExactList).get
    assert(basicGraph.exactLists(v).length == 8)
  }

  test("graph is connected (undirected reachability covers all vertices)") {
    // traversal over the union of out-links and in-links (exact-list
    // vertices keep directed lists; connectivity holds on the undirected view)
    val undirected = Array.fill(space.n)(scala.collection.mutable.HashSet.empty[Int])
    for (v <- 0 until space.n; u <- graph.adj(v)) { undirected(v) += u; undirected(u) += v }
    val visited = new java.util.BitSet(space.n)
    val q = new java.util.ArrayDeque[Integer]()
    visited.set(0); q.add(0)
    var count = 0
    while (!q.isEmpty) {
      val v = q.poll().intValue(); count += 1
      undirected(v).foreach(u => if (!visited.get(u)) { visited.set(u); q.add(u) })
    }
    assert(count == space.n)
  }

  test("no self loops, duplicates, or out-of-range links") {
    for (v <- 0 until space.n) {
      val es = graph.adj(v)
      assert(!es.contains(v))
      assert(es.distinct.length == es.length)
      es.foreach(u => assert(u >= 0 && u < space.n))
    }
  }

  test("space complexity is O(nK): total links bounded") {
    assert(graph.numLinks <= 8L * space.n * 8L, s"links=${graph.numLinks}")
    assert(graph.sizeBytes > 0)
  }

  test("build stats: all phases timed, pipeline mutated the graph") {
    assert(stats.nnDescentMs >= 0 && stats.connectMs >= 0)
    assert(stats.removeDetoursMs >= 0 && stats.removeLinksMs >= 0)
    assert(stats.totalMs == stats.nnDescentMs + stats.connectMs + stats.removeDetoursMs + stats.removeLinksMs)
    assert(stats.iterations >= 1)
    assert(stats.linksAddedConnect > 0) // reverse links always get added
  }

  test("build is deterministic in the seed") {
    val (a, _) = MRPG.build(space, 6, runner, seed = 9, maxIters = 3)
    val (b, _) = MRPG.build(space, 6, runner, seed = 9, maxIters = 3)
    assert((0 until space.n).forall(v => a.adj(v).sameElements(b.adj(v))))
  }

  test("exact-list vertices' adjacency equals their exact list") {
    val v = (0 until space.n).find(graph.hasExactList).get
    assert(graph.adj(v).toSet == graph.exactLists(v).toSet)
  }

  test("MRPG works on string spaces end to end") {
    val ss = TestSpaces.strings(300, seed = 53)
    val (g, _) = MRPG.build(ss, 6, runner, seed = 10, maxIters = 3)
    val res = repro.core.GraphDOD.detect(spark, ss, g, 4.0, 6, partitions = 1)
    assert(res.outliers.toSeq == BruteForce.outliers(ss, 4.0, 6).toSeq)
  }

  test("MRPG filtering beats KGraph filtering (fewer false positives), clustered data") {
    val kg = KGraphBuilder.build(space, 8, runner, seed = 5, maxIters = 5)
    val r = 8.0; val k = 8
    val mrpgRes = repro.core.GraphDOD.detect(spark, space, graph, r, k, partitions = 1)
    val kgRes = repro.core.GraphDOD.detect(spark, space, kg, r, k,
      usePivotHop = false, useExactShortcut = false, partitions = 1)
    assert(mrpgRes.falsePositives <= kgRes.falsePositives,
      s"MRPG fp=${mrpgRes.falsePositives} vs KGraph fp=${kgRes.falsePositives}")
  }

  test("small-n edge cases build and stay exact") {
    for (n <- Seq(5, 12, 40)) {
      val s = TestSpaces.uniform(n, 3, VectorMetric.L2, seed = 54 + n)
      val (g, _) = MRPG.build(s, 4, runner, seed = 11, maxIters = 2)
      val res = repro.core.GraphDOD.detect(spark, s, g, 30.0, 2, partitions = 1)
      assert(res.outliers.toSeq == BruteForce.outliers(s, 30.0, 2).toSeq, s"n=$n")
    }
  }

  test("LocalRunner and SparkRunner build identical MRPGs (order included) with equal work") {
    for (n <- Seq(300, 1000)) {
      val base = TestSpaces.clustered(n, 6, VectorMetric.L2, seed = 57, outlierFrac = 0.03)
      def buildVia(r: repro.core.ParRunner) = {
        val cs = new CountingSpace(base)
        val (g, st) = MRPG.build(cs, 8, r, seed = 5, maxIters = 5)
        (g, st, cs.evaluations)
      }
      val (lg, lst, lEvals) = buildVia(new LocalRunner(4))
      val (sg, sst, sEvals) = buildVia(new SparkRunner(spark, 4))
      assert(lg.adj.map(_.toSeq).toSeq == sg.adj.map(_.toSeq).toSeq, s"adj n=$n")
      assert(lg.isPivot.toSeq == sg.isPivot.toSeq, s"pivots n=$n")
      assert(lg.exactK == sg.exactK)
      assert(lg.exactLists.map(Option(_).map(_.toSeq)).toSeq ==
        sg.exactLists.map(Option(_).map(_.toSeq)).toSeq, s"exact lists n=$n")
      assert(lst.iterations == sst.iterations, s"iterations n=$n")
      assert(lEvals == sEvals, s"distance evaluations n=$n")
    }
  }

  /** Reference angular distance: `VectorSpace`'s dot product, norms and
    * clamp, with the JDK's `StrictMath.acos` in place of the port.
    */
  private final class StrictAcosAngular(vs: VectorSpace) extends MetricSpace {
    val n: Int = vs.n
    private val norms = vs.points.map { p =>
      var s = 0.0; var i = 0
      while (i < p.length) { s += p(i) * p(i); i += 1 }
      math.sqrt(s)
    }
    def dist(i: Int, j: Int): Double = {
      val a = vs.points(i); val b = vs.points(j)
      var dot = 0.0; var t = 0
      while (t < a.length) { dot += a(t) * b(t); t += 1 }
      val denom = norms(i) * norms(j)
      if (denom == 0.0) { if (norms(i) == norms(j)) 0.0 else 1.0 }
      else StrictMath.acos(math.max(-1.0, math.min(1.0, dot / denom))) / math.Pi
    }
    def dataBytes: Long = vs.dataBytes
  }

  test("angular MRPG is the same with the acos port as with StrictMath.acos") {
    val base = TestSpaces.angular(1000, 12, seed = 58)
    def buildOver(s: MetricSpace) = {
      val cs = new CountingSpace(s)
      val (g, _) = MRPG.build(cs, 8, new LocalRunner(4), seed = 5)
      (g, cs.evaluations)
    }
    val (pg, pEvals) = buildOver(base)
    val (sg, sEvals) = buildOver(new StrictAcosAngular(base))
    assert(pg.adj.map(_.toSeq).toSeq == sg.adj.map(_.toSeq).toSeq, "adj")
    assert(pg.isPivot.toSeq == sg.isPivot.toSeq, "pivots")
    assert(pg.exactK == sg.exactK)
    assert(pg.exactLists.map(Option(_).map(_.toSeq)).toSeq ==
      sg.exactLists.map(Option(_).map(_.toSeq)).toSeq, "exact lists")
    assert(pEvals == sEvals, "distance evaluations")
  }

  /** Reference string space: the two-row DP in place of the kernel. */
  private final class DpStringSpace(ss: StringSpace) extends MetricSpace {
    val n: Int = ss.n
    def dist(i: Int, j: Int): Double = DpEditDistance(ss.words(i), ss.words(j)).toDouble
    def dataBytes: Long = ss.dataBytes
  }

  test("string MRPG is the same with the bit-parallel kernel as with the two-row DP") {
    val base = TestSpaces.strings(1000, seed = 59)
    def buildOver(s: MetricSpace) = {
      val cs = new CountingSpace(s)
      val (g, _) = MRPG.build(cs, 8, new LocalRunner(4), seed = 5)
      (g, cs.evaluations)
    }
    val (kg, kEvals) = buildOver(base)
    val (dg, dEvals) = buildOver(new DpStringSpace(base))
    assert(kg.adj.map(_.toSeq).toSeq == dg.adj.map(_.toSeq).toSeq, "adj")
    assert(kg.isPivot.toSeq == dg.isPivot.toSeq, "pivots")
    assert(kg.exactK == dg.exactK)
    assert(kg.exactLists.map(Option(_).map(_.toSeq)).toSeq ==
      dg.exactLists.map(Option(_).map(_.toSeq)).toSeq, "exact lists")
    assert(kEvals == dEvals, "distance evaluations")
  }
}
