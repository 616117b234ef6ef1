package repro.dodbench

import java.io.{File, PrintWriter}
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import repro.core._
import repro.graph.{AKnnResult, MRPG, NNDescent, NNDescentConfig, ProximityGraph}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Spans recorded around the benchmark's calls into the program's layers.
  * They are kept in memory and written out as JSON lines at the end; every
  * per-layer metric is a sum over the spans of one name.
  */
final class Tracer {
  import Tracer.Span

  private val t0 = System.nanoTime()
  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Span] = Nil

  def span[T](name: String)(body: Span => T): T = {
    val s = new Span(spans.size, open.headOption.fold(-1)(_.id), name, System.nanoTime() - t0)
    spans += s
    open = s :: open
    try body(s)
    finally { s.endNs = System.nanoTime() - t0; open = open.tail }
  }

  def seconds(name: String): Double = spans.iterator.filter(_.name == name).map(_.durNs).sum / 1e9

  def total(name: String, key: String): Double =
    spans.iterator.filter(_.name == name).map(_.counts.getOrElse(key, 0.0)).sum

  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      val counts = s.counts.map { case (k, v) => s""""$k":$v""" }.mkString("{", ",", "}")
      out.println(s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs},"counts":$counts}""")
    }
    finally out.close()
  }
}

object Tracer {
  final class Span(val id: Int, val parent: Int, val name: String, val startNs: Long) {
    var endNs = 0L
    val counts = mutable.LinkedHashMap.empty[String, Double]
    def durNs: Long = endNs - startNs
    def update(key: String, v: Double): Unit = counts(key) = v
  }
}

/** Spark jobs, tasks and executor busy time, from the listener bus. */
final class BusyListener extends SparkListener {
  val jobsStarted = new AtomicLong
  val jobsEnded = new AtomicLong
  val tasks = new AtomicLong
  val busyMs = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobsStarted.incrementAndGet()
  override def onJobEnd(e: SparkListenerJobEnd): Unit = jobsEnded.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    if (e.taskMetrics != null) busyMs.addAndGet(e.taskMetrics.executorRunTime)
  }

  /** Waits until the bus has delivered every job's end (task ends precede
    * their job's end) and the counts have been stable for a while.
    */
  def drain(): Unit = {
    val deadline = System.nanoTime() + 10000000000L
    var last = (-1L, -1L)
    var stableSince = System.nanoTime()
    while (System.nanoTime() < deadline) {
      val now = (jobsStarted.get, tasks.get)
      if (now != last) { last = now; stableSince = System.nanoTime() }
      else if (jobsStarted.get == jobsEnded.get && System.nanoTime() - stableSince > 200000000L) return
      Thread.sleep(10)
    }
  }
}

/** The traced pass: the same build and queries as the timed part, with a
  * span around each call into `repro.graph`, `repro.core` and Spark, plus
  * a driver-local replay of each query that splits detection into its
  * phases. Reports every per-layer metric and whether the trace reconciles
  * exactly with the untraced timed part.
  */
object Trace {

  /** The NNDescent+ configuration `MRPG.build` uses for graph 0, spelled out. */
  def mrpgConfig(spec: repro.data.DatasetSpec, n: Int): NNDescentConfig = NNDescentConfig(
    K = spec.graphK,
    vpInit = true,
    skipUnchanged = true,
    exactListSize = MRPG.KPrimeFactor * spec.graphK,
    exactCount = MRPG.defaultExactCount(n),
    seed = Bench.seedOf(spec.seed, 1),
  )

  /** Algorithm 1 for one query, driver-local through `LocalRunner`: the
    * three calls `GraphDOD.detect` makes per object, each phase on its own
    * `CountingSpace` so that its distance evaluations are counted exactly.
    */
  def replay(tr: Tracer, base: MetricSpace, g: ProximityGraph, counter: ExactCounter, q: Query): Array[Int] = {
    val shortcutSp = new CountingSpace(base)
    val filterSp = new CountingSpace(base)
    val verifySp = new CountingSpace(base)
    tr.span("core.replay") { _ =>
      new LocalRunner(Bench.Cores).runWithData(base.n, g) { (g, start, end) =>
        val direct = Array.newBuilder[Int]
        val candidates = Array.newBuilder[Int]
        val verified = Array.newBuilder[Int]
        def shortcut(p: Int): Boolean = g.hasExactList(p) && q.k <= g.exactK
        tr.span("core.shortcut") { sp =>
          val c0 = shortcutSp.evaluations
          var p = start
          while (p < end) {
            if (shortcut(p) && GreedyCounting.countExactList(shortcutSp, g.exactLists(p), p, q.r, q.k) < q.k)
              direct += p
            p += 1
          }
          sp("dists") = (shortcutSp.evaluations - c0).toDouble
          sp("direct") = direct.length.toDouble
        }
        tr.span("core.filter") { sp =>
          val c0 = filterSp.evaluations
          var p = start
          while (p < end) {
            if (!shortcut(p) && GreedyCounting.count(filterSp, g, p, q.r, q.k, usePivotHop = true) < q.k)
              candidates += p
            p += 1
          }
          sp("dists") = (filterSp.evaluations - c0).toDouble
          sp("candidates") = candidates.length.toDouble
        }
        tr.span("core.verify") { sp =>
          val c0 = verifySp.evaluations
          val cand = candidates.result()
          cand.foreach(p => if (counter.count(verifySp, p, q.r, q.k) < q.k) verified += p)
          val out = verified.result()
          sp("dists") = (verifySp.evaluations - c0).toDouble
          sp("false_positives") = (cand.length - out.length).toDouble
          direct.result() ++ out
        }
      }.flatten.toArray.sorted
    }
  }

  /** ns per `MetricSpace.dist` on seeded random pairs of the workload's own
    * data: the median of the rounds after two warm-up rounds, run after the
    * benchmark has warmed the JIT.
    */
  def distNs(space: MetricSpace, seed: Long): Double = {
    val rng = new Random(seed)
    val m = 1 << 16
    val a = Array.fill(m)(rng.nextInt(space.n))
    val b = Array.fill(m)(rng.nextInt(space.n))
    var sink = 0.0
    val rounds = (0 until 9).map { _ =>
      val t0 = System.nanoTime()
      var i = 0
      while (i < m) { sink += space.dist(a(i), b(i)); i += 1 }
      (System.nanoTime() - t0).toDouble / m
    }
    if (sink.isNaN) Console.err.println("[dodbench] NaN distance in microbenchmark")
    Bench.median(rounds.drop(2))
  }

  /** Result of the traced pass: metrics by name, and the reconciliation
    * checks that failed (empty when the trace is consistent).
    */
  final case class Result(metrics: Seq[(String, Double)], mismatches: Seq[String])

  /** Traces graph 0 of the untraced run `ref` and its queries. */
  def run(s: Setup, w: Workload, truth: Map[Query, Array[Int]], ref: Timed, tr: Tracer): Result = {
    val sc = s.spark.sparkContext
    val mismatches = ArrayBuffer.empty[String]
    def check(ok: Boolean, what: => String): Unit = if (!ok) mismatches += what
    val refBuild = ref.builds.head
    val refRuns = ref.passes.head.runs.filter(_.graph == 0)
    val refDetectDists = refRuns.map(_.dists).sum

    // ---- Spark-side build and queries, under the listener ----------------
    val listener = new BusyListener
    sc.addSparkListener(listener)
    val tb = System.nanoTime()
    val nnd: AKnnResult = tr.span("graph.nndescent") { sp =>
      val c0 = s.space.evaluations
      val res = NNDescent.build(s.space, mrpgConfig(s.spec, s.space.n), s.runner)
      sp("dists") = (s.space.evaluations - c0).toDouble
      sp("iters") = res.iterations.toDouble
      res
    }
    val built = tr.span("graph.mrpg") { sp =>
      val b = Bench.build(s.space, s.spec, s.runner, 0)
      sp("dists") = b.dists.toDouble
      b
    }
    val detected = w.grid.map { q =>
      tr.span("spark.detect") { sp =>
        val c0 = s.space.evaluations
        val res = Bench.detect(s, 0, built.graph, q)
        sp("dists") = (s.space.evaluations - c0).toDouble
        res.outliers
      }
    }
    val sparkWall = Bench.secondsSince(tb)
    listener.drain()
    sc.removeSparkListener(listener)

    // ---- driver-local replay, local NNDescent, metric kernel -------------
    val replayed = w.grid.map(q => replay(tr, s.space.base, built.graph, s.counters.head, q))
    tr.span("spark.nndescent_local") { _ =>
      NNDescent.build(s.space.base, mrpgConfig(s.spec, s.space.n), new LocalRunner(Bench.Cores))
    }
    val ns = tr.span("core.metric") { _ => distNs(s.space.base, s.spec.seed) }

    // ---- reconciliation with the untraced timed part ---------------------
    val nndDists = tr.total("graph.nndescent", "dists").toLong
    check(built.dists == refBuild.dists, s"traced build dists ${built.dists} != build_dists ${refBuild.dists}")
    check(nndDists < built.dists, s"nndescent dists $nndDists >= build dists ${built.dists}")
    check(nnd.iterations == built.stats.iterations,
      s"nndescent iterations ${nnd.iterations} != MRPG's ${built.stats.iterations}")
    val phaseDists = Seq("core.filter", "core.shortcut", "core.verify").map(tr.total(_, "dists")).sum.toLong
    check(phaseDists == refDetectDists,
      s"filter+shortcut+verify dists $phaseDists != graph 0's detect dists $refDetectDists")
    check(tr.total("spark.detect", "dists").toLong == refDetectDists, "traced detect dists != graph 0's")
    for (((q, d), rp) <- w.grid.zip(detected).zip(replayed)) {
      check(d.sameElements(rp), s"replay outliers differ from GraphDOD.detect at r=${q.r} k=${q.k}")
      check(rp.sameElements(truth(q)), s"replay outliers differ from ground truth at r=${q.r} k=${q.k}")
    }

    val st = built.stats
    val filterS = tr.seconds("core.filter")
    val visits = tr.total("core.filter", "dists")
    val candidates = tr.total("core.filter", "candidates")
    val fp = tr.total("core.verify", "false_positives")
    val busyS = listener.busyMs.get / 1e3
    // the last untraced pass is the JIT-warmest; builds are left out because
    // a single-set-up run has only one untraced build, and it ran colder
    val untracedS = ref.passes.last.runs.filter(_.graph == 0).map(_.wallS).sum
    val tracedS = tr.seconds("spark.detect")
    Result(Seq(
      "graph.nndescent.s" -> tr.seconds("graph.nndescent"),
      "graph.nndescent.dists" -> nndDists.toDouble,
      "graph.nndescent.iters" -> nnd.iterations.toDouble,
      "graph.refine.dists" -> (refBuild.dists - nndDists).toDouble,
      "graph.connect.s" -> st.connectMs / 1e3,
      "graph.detours.s" -> st.removeDetoursMs / 1e3,
      "graph.rmlinks.s" -> st.removeLinksMs / 1e3,
      "graph.connect.links_added" -> st.linksAddedConnect.toDouble,
      "graph.detours.links_added" -> st.linksAddedDetours.toDouble,
      "graph.rmlinks.links_removed" -> st.linksRemoved.toDouble,
      "graph.metric_cpu_s" -> refBuild.dists * ns / 1e9,
      "core.filter.s" -> filterS,
      "core.filter.visits" -> visits,
      "core.filter.ns_per_visit" -> (if (visits > 0) filterS * 1e9 / visits else 0.0),
      "core.filter.candidates" -> candidates,
      "core.shortcut.s" -> tr.seconds("core.shortcut"),
      "core.shortcut.dists" -> tr.total("core.shortcut", "dists"),
      "core.shortcut.direct" -> tr.total("core.shortcut", "direct"),
      "core.verify.s" -> tr.seconds("core.verify"),
      "core.verify.dists" -> tr.total("core.verify", "dists"),
      "core.verify.false_positives" -> fp,
      // no candidates means no verification work was wasted
      "core.verify.useful_frac" -> (if (candidates > 0) (candidates - fp) / candidates else 1.0),
      "core.metric.dist_ns" -> ns,
      "spark.jobs" -> listener.jobsEnded.get.toDouble,
      "spark.tasks" -> listener.tasks.get.toDouble,
      "spark.task_busy_s" -> busyS,
      "spark.busy_frac" -> busyS / (sparkWall * Bench.Cores),
      "spark.local_replay_s" -> tr.seconds("core.replay"),
      "spark.nndescent_local_s" -> tr.seconds("spark.nndescent_local"),
      "trace.overhead_s" -> (tracedS - untracedS),
    ), mismatches.toSeq)
  }
}
