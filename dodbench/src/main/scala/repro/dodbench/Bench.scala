package repro.dodbench

import java.util.SplittableRandom
import java.util.stream.IntStream
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.DatasetSpec
import repro.graph.{MRPG, ProximityGraph}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random
import scala.util.control.NonFatal

/** One MRPG build: the graph, its step decomposition, wall time and
  * distance evaluations.
  */
final case class Built(graph: ProximityGraph, stats: MRPG.BuildStats, wallS: Double, dists: Long)

/** One `GraphDOD.detect` call on the run's graph number `graph`;
  * `outliers` is `None` when it threw.
  */
final case class QueryRun(graph: Int, q: Query, wallS: Double, dists: Long, outliers: Option[Array[Int]])

/** One pass: the workload's query grid on every graph of the run. */
final case class Pass(runs: Seq[QueryRun]) {
  def wallS: Double = runs.map(_.wallS).sum
  def dists: Long = runs.map(_.dists).sum
}

/** Operations attempted and failed (thrown, or outliers differing from the
  * ground truth).
  */
final class Ops {
  var attempted = 0
  var failed = 0

  def attempt[T](what: String)(body: => T): Option[T] = {
    attempted += 1
    try Some(body)
    catch {
      case NonFatal(e) =>
        failed += 1
        Console.err.println(s"[dodbench] $what failed: $e")
        None
    }
  }
}

/** Everything the timed part needs, produced by one set-up. Graph `i` is
  * verified with `counters(i)`.
  */
final class Setup(
    val spark: SparkSession,
    val spec: DatasetSpec,
    val space: CountingSpace,
    val runner: SparkRunner,
    val counters: Seq[ExactCounter],
    val prebuilt: Option[Built],
)

/** The run's graphs (built in set-up or in the timed part) and the query
  * passes of its timed part.
  */
final case class Timed(builds: Seq[Built], passes: Seq[Pass])

object Bench {
  val Cores: Int = Runtime.getRuntime.availableProcessors

  /** Scale of the throwaway warm-up dataset (as in `BenchContext.warmup`). */
  private val WarmupScale = 0.08

  /** Query passes fill the timed part, and at least this share of it
    * after the builds, so `detect_s` is a median even when a build nearly
    * fills the run.
    */
  private val QueryShare = 0.25

  /** Seed of random stream `stream` of a run: stream 0 shuffles the ids,
    * stream 1 + i builds graph i and its VP-tree. Drawn from a
    * SplittableRandom because java.util.Random streams from nearby seeds
    * start out alike, which made a run's graphs, and so their detection
    * work, correlated.
    */
  def seedOf(seed: Long, stream: Int): Long = {
    val r = new SplittableRandom(seed)
    (0 until stream).foreach(_ => r.nextLong())
    r.nextLong()
  }

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Spark pinned to `local[N]`, N = available cores. */
  def session(): SparkSession = {
    val spark = SparkSession.builder()
      .master(s"local[$Cores]")
      .appName("dodbench")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    // CountingSpace sees executor-side evaluations only when executors share
    // the driver JVM; under any other master every *_dists would read ~0.
    require(spark.sparkContext.isLocal,
      s"refusing to count distances under non-local master ${spark.sparkContext.master}")
    spark
  }

  /** Spark session, the workload's space, JIT warm-up on a small throwaway
    * dataset, and every index built ahead of the queries: one VP-tree per
    * graph when it verifies (seeded like the graph, since verification work
    * depends on the tree), and graph number `rep` when the workload builds
    * in set-up.
    */
  def setUp(w: Workload, seed: Long, rep: Int, scale: Double, ops: Ops): Setup = {
    val spark = session()
    val spec = w.spec.copy(seed = seed)
    val runner = new SparkRunner(spark, spark.sparkContext.defaultParallelism)
    val space = new CountingSpace(shuffled(w.spec.space(spark, scale), new Random(seedOf(seed, 0))))
    warmUp(spark, spec, runner, math.min(scale, WarmupScale))
    val counters = (0 until w.graphs).map { i =>
      if (spec.vpVerify) VPTreeCounter(VPTree.build(space, capacity = 32, seed = seedOf(seed, 1 + i)))
      else LinearScanCounter()
    }
    val prebuilt =
      if (w.buildInSetup && rep < w.graphs) ops.attempt("MRPG.build")(build(space, spec, runner, rep))
      else None
    new Setup(spark, spec, space, runner, counters, prebuilt)
  }

  /** The same objects under ids shuffled by `rng`. The point set stays the
    * spec's own, whose `r` and `k` are calibrated to the paper's outlier
    * ratio; a new point set per seed would swing the outlier count, and
    * with it every distance count, by tens of percent.
    */
  private def shuffled(space: MetricSpace, rng: Random): MetricSpace = space match {
    case v: VectorSpace => new VectorSpace(rng.shuffle(v.points.toIndexedSeq).toArray, v.metric)
    case s: StringSpace => new StringSpace(rng.shuffle(s.words.toIndexedSeq).toArray)
    case other => throw new IllegalArgumentException(s"unsupported space: $other")
  }

  private def warmUp(spark: SparkSession, spec: DatasetSpec, runner: ParRunner, scale: Double): Unit = {
    val space = spec.copy(seed = spec.seed + 1).space(spark, scale)
    val (g, _) = MRPG.build(space, spec.graphK, runner, seed = 1)
    val counter =
      if (spec.vpVerify) VPTreeCounter(VPTree.build(space, capacity = 32, seed = 1))
      else LinearScanCounter()
    GraphDOD.detect(spark, space, g, spec.r, spec.k, counter = counter)
  }

  /** Builds the run's graph number `i`; `spec.seed` is the run's seed. */
  def build(space: CountingSpace, spec: DatasetSpec, runner: ParRunner, i: Int): Built = {
    val c0 = space.evaluations
    val t0 = System.nanoTime()
    val (g, st) = MRPG.build(space, spec.graphK, runner, seed = seedOf(spec.seed, 1 + i))
    Built(g, st, secondsSince(t0), space.evaluations - c0)
  }

  /** Detects with graph number `i` and its counter. */
  def detect(s: Setup, i: Int, g: ProximityGraph, q: Query): DODResult =
    GraphDOD.detect(s.spark, s.space, g, q.r, q.k, counter = s.counters(i))

  /** Exact outlier sets of every query: one capped brute-force pass per
    * distinct `r`, with cap = the largest `k`, answers every `k`.
    */
  def groundTruth(space: MetricSpace, grid: Seq[Query]): Map[Query, Array[Int]] =
    grid.groupBy(_.r).flatMap { case (r, qs) =>
      val cap = qs.map(_.k).max
      val counts = IntStream.range(0, space.n).parallel()
        .map(p => BruteForce.countNeighbors(space, p, r, cap)).toArray
      qs.map(q => q -> counts.indices.filter(counts(_) < q.k).toArray)
    }

  /** Runs the query grid on every graph, checking each outlier set
    * against the ground truth.
    */
  def pass(s: Setup, w: Workload, graphs: Seq[Built], truth: Map[Query, Array[Int]], ops: Ops): Pass =
    Pass(for ((g, gi) <- graphs.zipWithIndex; q <- w.grid) yield {
      val c0 = s.space.evaluations
      val t0 = System.nanoTime()
      val res = ops.attempt(s"query r=${q.r} k=${q.k}")(detect(s, gi, g.graph, q).outliers)
      val run = QueryRun(gi, q, secondsSince(t0), s.space.evaluations - c0, res)
      if (res.exists(!_.sameElements(truth(q)))) {
        ops.failed += 1
        Console.err.println(s"[dodbench] query r=${q.r} k=${q.k}: outliers differ from ground truth")
      }
      run
    })

  /** Builds the workload's graphs unless set-up did (`prebuilt`), then runs
    * query passes until the next one would overrun `seconds` and the passes
    * have had [[QueryShare]] of it.
    */
  def timed(s: Setup, w: Workload, prebuilt: Seq[Built], truth: Map[Query, Array[Int]], seconds: Double,
      ops: Ops): Timed = {
    System.gc() // set-up's garbage is not the timed part's to collect
    val t0 = System.nanoTime()
    val graphs = prebuilt ++ (if (w.buildInSetup) Nil else (0 until w.graphs).flatMap { i =>
      ops.attempt("MRPG.build")(build(s.space, s.spec, s.runner, i))
    })
    require(graphs.nonEmpty, "every MRPG build failed")
    System.gc()
    val q0 = System.nanoTime()
    val passes = ArrayBuffer.empty[Pass]
    var last = 0.0
    def fits(since: Long, budget: Double): Boolean = secondsSince(since) + last <= budget
    while (passes.isEmpty || fits(t0, seconds) || fits(q0, seconds * QueryShare)) {
      val p0 = System.nanoTime()
      passes += pass(s, w, graphs, truth, ops)
      last = secondsSince(p0)
    }
    Timed(graphs, passes.toSeq)
  }
}
