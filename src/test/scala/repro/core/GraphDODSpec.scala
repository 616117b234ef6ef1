package repro.core

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.{SparkSpec, TestSpaces}
import repro.core.{VectorMetric => VM}
import repro.graph.{KGraphBuilder, MRPG, NSW, ProximityGraph}
import scala.util.Random

/** Algorithm 1 end-to-end: exactness for every proximity graph on every
  * scenario and several (r, k) settings, plus accounting invariants and
  * equivalence of the inline run (`partitions = 1`) and the Spark fan-out.
  * The scenario tests run inline.
  */
class GraphDODSpec extends SparkSpec {

  private lazy val runner = new LocalRunner(4)

  private final case class GraphCase(
      name: String,
      build: MetricSpace => ProximityGraph,
      pivotHop: Boolean,
      shortcut: Boolean,
  )

  private lazy val graphCases = Seq(
    GraphCase("NSW", s => NSW.build(s, f = 6, seed = 5), pivotHop = false, shortcut = false),
    GraphCase("KGraph", s => KGraphBuilder.build(s, 10, runner, seed = 5, maxIters = 4),
      pivotHop = false, shortcut = false),
    GraphCase("MRPG-basic", s => MRPG.build(s, 10, runner, seed = 5, basic = true, maxIters = 4)._1,
      pivotHop = true, shortcut = false),
    GraphCase("MRPG", s => MRPG.build(s, 10, runner, seed = 5, basic = false, maxIters = 4)._1,
      pivotHop = true, shortcut = true),
  )

  // cache graphs per (scenario, graph) — they are deterministic
  private val cache = scala.collection.mutable.HashMap.empty[(String, String), ProximityGraph]
  private def graphFor(s: TestSpaces.Scenario, gc: GraphCase): ProximityGraph =
    cache.getOrElseUpdate((s.name, gc.name), gc.build(s.space))

  for (s <- TestSpaces.scenarios(); gc <- graphCases) {
    test(s"${s.name}/${gc.name}: detectLocal is exact at the default (r, k)") {
      val g = graphFor(s, gc)
      val res = GraphDOD.detect(spark, s.space, g, s.r, s.k, gc.pivotHop, gc.shortcut, partitions = 1)
      val truth = BruteForce.outliers(s.space, s.r, s.k)
      assert(truth.nonEmpty, "scenario must contain outliers")
      assert(truth.length < s.space.n, "scenario must contain inliers")
      assert(res.outliers.toSeq == truth.toSeq)
    }

    test(s"${s.name}/${gc.name}: exact under varied r and k") {
      val g = graphFor(s, gc)
      for ((rf, k2) <- Seq((0.6, 3), (1.4, s.k), (1.0, 2 * s.k))) {
        val r2 = s.r * rf
        val res = GraphDOD.detect(spark, s.space, g, r2, k2, gc.pivotHop, gc.shortcut, partitions = 1)
        assert(res.outliers.toSeq == BruteForce.outliers(s.space, r2, k2).toSeq, s"r=$r2 k=$k2")
      }
    }
  }

  for (gc <- graphCases) {
    test(s"${gc.name}: accounting — candidates = falsePositives + verified outliers") {
      val s = TestSpaces.scenarios().head
      val g = graphFor(s, gc)
      val res = GraphDOD.detect(spark, s.space, g, s.r, s.k, gc.pivotHop, gc.shortcut, partitions = 1)
      val verifiedOutliers = res.outliers.length - res.directOutliers
      assert(res.candidates == res.falsePositives + verifiedOutliers)
      if (!gc.shortcut) assert(res.directOutliers == 0)
    }
  }

  for (s <- TestSpaces.scenarios()) {
    test(s"${s.name}: detect at partitions = 1 equals detect at the default fan-out (MRPG)") {
      val (g, _) = MRPG.build(s.space, 10, runner, seed = 6, maxIters = 4)
      val inline = GraphDOD.detect(spark, s.space, g, s.r, s.k, partitions = 1)
      val fanned = GraphDOD.detect(spark, s.space, g, s.r, s.k)
      assert(fanned.outliers.toSeq == inline.outliers.toSeq)
      assert(fanned.candidates == inline.candidates)
      assert(fanned.falsePositives == inline.falsePositives)
      assert(fanned.directOutliers == inline.directOutliers)
    }
  }

  test("Spark detect is invariant to the partition count") {
    val s = TestSpaces.scenarios()(1)
    val (g, _) = MRPG.build(s.space, 10, runner, seed = 7, maxIters = 4)
    val results = Seq(1, 3, 16).map(p =>
      GraphDOD.detect(spark, s.space, g, s.r, s.k, partitions = p).outliers.toSeq)
    assert(results.distinct.size == 1)
  }

  test("detect runs one Spark job per call") {
    // KGraph has no exact-list shortcut, so its outliers are candidates
    val s = TestSpaces.scenarios().head
    val gc = graphCases(1)
    val g = graphFor(s, gc)
    val sc = spark.sparkContext
    // jobs carry the local properties of the thread that submits them
    val tag = "repro.test.graphdod"
    val detectJobs = new AtomicInteger
    val sentinelSeen = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty(tag))) match {
          case Some("detect") => detectJobs.incrementAndGet()
          case Some("sentinel") => sentinelSeen.countDown()
          case _ => ()
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setLocalProperty(tag, "detect")
      val res = GraphDOD.detect(spark, s.space, g, s.r, s.k, gc.pivotHop, gc.shortcut, partitions = 4)
      // the listener bus delivers events in order: once the sentinel job's
      // start arrives, every job detect started has been seen
      sc.setLocalProperty(tag, "sentinel")
      sc.parallelize(Seq(1), 1).count()
      assert(sentinelSeen.await(60, TimeUnit.SECONDS), "sentinel job not seen")
      // two or more candidates: verifying them apart from filtering would
      // take a job of its own
      assert(res.candidates >= 2, s"candidates=${res.candidates}")
      assert(res.outliers.toSeq == BruteForce.outliers(s.space, s.r, s.k).toSeq)
      assert(detectJobs.get == 1)
    } finally {
      sc.setLocalProperty(tag, null)
      sc.removeSparkListener(listener)
    }
  }

  test("detectDF returns the outlier ids as a DataFrame") {
    val s = TestSpaces.scenarios().head
    val (g, _) = MRPG.build(s.space, 10, runner, seed = 8, maxIters = 4)
    val df = GraphDOD.detectDF(spark, s.space, g, s.r, s.k)
    assert(df.columns.toSeq == Seq("id"))
    val got = df.collect().map(_.getLong(0).toInt).sorted.toSeq
    assert(got == BruteForce.outliers(s.space, s.r, s.k).toSeq)
  }

  test("VP-tree verification yields the same result as linear-scan verification") {
    val s = TestSpaces.scenarios().head
    val (g, _) = MRPG.build(s.space, 10, runner, seed = 9, maxIters = 4)
    val tree = VPTree.build(s.space, 16, seed = 3)
    val a = GraphDOD.detect(spark, s.space, g, s.r, s.k, counter = LinearScanCounter(), partitions = 1)
    val b = GraphDOD.detect(spark, s.space, g, s.r, s.k, counter = VPTreeCounter(tree), partitions = 1)
    assert(a.outliers.toSeq == b.outliers.toSeq)
    assert(a.falsePositives == b.falsePositives)
  }

  test("degenerate k=1 and huge k stay exact (MRPG)") {
    val s = TestSpaces.scenarios()(2)
    val (g, _) = MRPG.build(s.space, 8, runner, seed = 10, maxIters = 4)
    for (k <- Seq(1, s.space.n - 1)) {
      val res = GraphDOD.detect(spark, s.space, g, s.r, k, partitions = 1)
      assert(res.outliers.toSeq == BruteForce.outliers(s.space, s.r, k).toSeq, s"k=$k")
    }
  }

  test("r=0 marks everything an outlier; huge r marks nothing (MRPG)") {
    val s = TestSpaces.scenarios().head
    val (g, _) = MRPG.build(s.space, 8, runner, seed = 11, maxIters = 4)
    val all = GraphDOD.detect(spark, s.space, g, 0.0, 2, partitions = 1)
    assert(all.outliers.length == s.space.n)
    val none = GraphDOD.detect(spark, s.space, g, 1e9, 2, partitions = 1)
    assert(none.outliers.isEmpty)
  }

  test("detect rejects a NaN, negative or infinite r and k = 0") {
    val s = TestSpaces.scenarios().head
    val g = ProximityGraph.plain(Array.fill(s.space.n)(Array.empty[Int]))
    for (r <- Seq(Double.NaN, -1.0, Double.PositiveInfinity, Double.NegativeInfinity))
      assertThrows[IllegalArgumentException](GraphDOD.detect(spark, s.space, g, r, s.k, partitions = 1))
    assertThrows[IllegalArgumentException](GraphDOD.detect(spark, s.space, g, s.r, 0, partitions = 1))
  }

  test("empty-adjacency graph still yields exact results (all candidates verified)") {
    val s = TestSpaces.scenarios().head
    val g = ProximityGraph.plain(Array.fill(s.space.n)(Array.empty[Int]))
    val res = GraphDOD.detect(spark, s.space, g, s.r, s.k, usePivotHop = false, useExactShortcut = false, partitions = 1)
    assert(res.outliers.toSeq == BruteForce.outliers(s.space, s.r, s.k).toSeq)
    assert(res.candidates == s.space.n) // nothing gets filtered
  }

  test("a better graph filters more: MRPG candidates <= empty-graph candidates") {
    val s = TestSpaces.scenarios().head
    val (g, _) = MRPG.build(s.space, 10, runner, seed = 12, maxIters = 4)
    val res = GraphDOD.detect(spark, s.space, g, s.r, s.k, partitions = 1)
    assert(res.candidates + res.directOutliers < s.space.n)
  }

  test("filtering time and verification time are reported non-negative") {
    val s = TestSpaces.scenarios().head
    val (g, _) = MRPG.build(s.space, 10, runner, seed = 13, maxIters = 4)
    val res = GraphDOD.detect(spark, s.space, g, s.r, s.k, partitions = 1)
    assert(res.filterMs >= 0 && res.verifyMs >= 0)
    assert(res.totalMs == res.filterMs + res.verifyMs)
  }

  test("random adversarial spaces: MRPG detection stays exact (20 draws)") {
    val rng = new Random(99)
    for (i <- 0 until 20) {
      val space = TestSpaces.uniform(120 + rng.nextInt(80), 3, VM.L2, seed = 1000 + i)
      val (g, _) = MRPG.build(space, 6, runner, seed = i, maxIters = 3)
      val r = 10.0 + rng.nextDouble() * 40.0
      val k = 1 + rng.nextInt(8)
      val res = GraphDOD.detect(spark, space, g, r, k, partitions = 1)
      assert(res.outliers.toSeq == BruteForce.outliers(space, r, k).toSeq, s"draw $i r=$r k=$k")
    }
  }
}
