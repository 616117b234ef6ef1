package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{CountingSpace, LocalRunner, MetricSpace, SparkRunner}
import repro.data.Datasets
import repro.graph.{KGraphBuilder, MRPG, NNDescent, NNDescentConfig, NSW, ProximityGraph}
import scala.util.Random

/** Profiling entrypoint: builds each proximity graph for one dataset and
  * prints wall time, distance evaluations and MRPG step decomposition, then
  * ns per distance over the MRPG's own links beside ns per distance over as
  * many random pairs: builds evaluate mostly near pairs, whose cost random
  * pairs need not show.
  *
  * Usage: `runMain repro.jobs.BuildProfileJob <dataset> [scale] [local|spark]`
  */
object BuildProfileJob {
  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("deep")
    val scale = if (args.length > 1) args(1).toDouble else 1.0
    val useLocal = args.length > 2 && args(2) == "local"
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("BuildProfileJob")
      .getOrCreate()
    try {
      val spec = Datasets.byName(name)
      val space = new CountingSpace(spec.space(spark, scale))
      // same chunk count in both modes, so both build the same graphs
      val parts = spark.sparkContext.defaultParallelism
      val runner = if (useLocal) new LocalRunner(parts) else new SparkRunner(spark, parts)
      println(s"dataset=$name n=${space.n} K=${spec.graphK} runner=${if (useLocal) "local" else "spark"}")

      def prof(label: String)(body: => Any): Unit = {
        val c0 = space.evaluations
        val t0 = System.nanoTime()
        val res = body
        val ms = (System.nanoTime() - t0) / 1000000L
        println(f"$label%-12s ${ms}ms  dists=${(space.evaluations - c0) / 1e6}%.1fM  $res")
      }

      prof("NNDescent") {
        val cfg = NNDescentConfig(spec.graphK, vpInit = false, skipUnchanged = false, seed = spec.seed)
        s"iters=${NNDescent.build(space, cfg, runner).iterations}"
      }
      prof("NNDescent+") {
        val cfg = NNDescentConfig(spec.graphK, vpInit = true, skipUnchanged = true,
          exactListSize = 4 * spec.graphK, exactCount = MRPG.defaultExactCount(space.n), seed = spec.seed)
        s"iters=${NNDescent.build(space, cfg, runner).iterations}"
      }
      prof("KGraph") { KGraphBuilder.build(space, spec.graphK, runner, seed = spec.seed); "" }
      var mrpg: ProximityGraph = null
      prof("MRPG") {
        val (g, st) = MRPG.build(space, spec.graphK, runner, seed = spec.seed)
        mrpg = g
        s"nn=${st.nnDescentMs} connect=${st.connectMs} detours=${st.removeDetoursMs} " +
          s"rmlinks=${st.removeLinksMs} iters=${st.iterations} " +
          s"+C=${st.linksAddedConnect} +D=${st.linksAddedDetours} -L=${st.linksRemoved}"
      }
      prof("NSW") { NSW.build(space, math.max(2, spec.graphK / 2), seed = spec.seed); "" }

      val linkFrom = mrpg.adj.indices.flatMap(v => Array.fill(mrpg.adj(v).length)(v)).toArray
      val linkTo = mrpg.adj.flatten
      val rng = new Random(spec.seed)
      val randFrom = Array.fill(linkFrom.length)(rng.nextInt(space.n))
      val randTo = Array.fill(linkFrom.length)(rng.nextInt(space.n))
      println(f"dist ns      random=${nsPerDist(space.base, randFrom, randTo)}%.1f  " +
        f"links=${nsPerDist(space.base, linkFrom, linkTo)}%.1f  pairs=${linkFrom.length}")
    } finally spark.stop()
  }

  /** Mean ns per `dist(a(i), b(i))` over the pairs, best of three passes. */
  private def nsPerDist(space: MetricSpace, a: Array[Int], b: Array[Int]): Double = {
    var sink = 0.0
    val passes = Seq.fill(3) {
      val t0 = System.nanoTime()
      var i = 0
      while (i < a.length) { sink += space.dist(a(i), b(i)); i += 1 }
      (System.nanoTime() - t0).toDouble / a.length
    }
    if (sink.isNaN) Console.err.println("NaN distance in the ns-per-dist probe")
    passes.min
  }
}
