package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.ProximityGraph

/** Exact neighbor counting for the verification phase (`Exact-Counting` in
  * Algorithm 1): a linear scan for high-dimensional data, a VP-tree range
  * count for data with low intrinsic dimensionality. Both stop at `k`.
  */
sealed trait ExactCounter extends Serializable {
  def count(space: MetricSpace, p: Int, r: Double, k: Int): Int
  def name: String
  def sizeBytes: Long
}

final case class LinearScanCounter() extends ExactCounter {
  def count(space: MetricSpace, p: Int, r: Double, k: Int): Int =
    BruteForce.countNeighbors(space, p, r, k)
  def name = "linear-scan"
  def sizeBytes = 0L
}

final case class VPTreeCounter(tree: VPTree) extends ExactCounter {
  def count(space: MetricSpace, p: Int, r: Double, k: Int): Int =
    tree.rangeCount(space, p, r, k)
  def name = "vp-tree"
  def sizeBytes: Long = tree.sizeBytes
}

/** Result of one DOD run.
  *
  * @param outliers       detected outlier ids (sorted)
  * @param candidates     |P'| — objects that survived filtering (excludes
  *                       exact-list direct decisions)
  * @param falsePositives inliers among the candidates (Table 7's `f`)
  * @param directOutliers outliers decided by the exact-list shortcut (§5.5)
  * @param filterMs       filtering phase [ms]: the call's wall time times
  *                       the share of its tasks' time spent filtering
  * @param verifyMs       verification phase [ms]: the call's wall time times
  *                       the share of its tasks' time spent verifying (0
  *                       when there are no candidates); the two add up to
  *                       the wall time
  */
final case class DODResult(
    outliers: Array[Int],
    candidates: Int,
    falsePositives: Int,
    directOutliers: Int,
    filterMs: Long,
    verifyMs: Long,
) {
  def totalMs: Long = filterMs + verifyMs
}

/** Algorithm 1: proximity-graph-based DOD — filtering by Greedy-Counting,
  * then exact verification of the candidates. Exact for any proximity graph
  * (Lemma 1: filtering has no false negatives).
  */
object GraphDOD {

  // per-object filtering verdicts
  private val Inlier = 0: Byte // filtered: proven inlier
  private val Candidate = 1: Byte // needs verification
  private val DirectOutlier = 2: Byte // exact-list shortcut says outlier
  private val DirectInlier = 3: Byte // exact-list shortcut says inlier

  /** One object's filtering verdict (§4 filtering phase + §5.5 shortcut). */
  def filterVerdict(
      space: MetricSpace,
      g: ProximityGraph,
      p: Int,
      r: Double,
      k: Int,
      usePivotHop: Boolean,
      useExactShortcut: Boolean,
  ): Byte = {
    if (useExactShortcut && g.hasExactList(p) && k <= g.exactK) {
      val c = GreedyCounting.countExactList(space, g.exactLists(p), p, r, k)
      if (c < k) DirectOutlier else DirectInlier
    } else {
      val c = GreedyCounting.count(space, g, p, r, k, usePivotHop)
      if (c < k) Candidate else Inlier
    }
  }

  /** One chunk's share of a detection: its outliers in ascending order,
    * its candidate and direct-outlier counts, and the ns it spent in each
    * phase.
    */
  private final case class ChunkResult(
      outliers: Array[Int],
      candidates: Int,
      directOutliers: Int,
      filterNs: Long,
      verifyNs: Long,
  )

  /** Algorithm 1 with the paper's multi-threading (§4): one [[SparkRunner]]
    * fan-out over contiguous id chunks of `[0, n)`. A chunk filters each of
    * its objects and verifies a candidate right away, because one object's
    * verification depends on no other object. `partitions = 1` runs inline
    * on the driver; `0` uses Spark's default parallelism.
    *
    * Each task times its verifications and counts the rest of its time as
    * filtering. The timers return with the task results, so the
    * `filterMs`/`verifyMs` split of [[DODResult]] holds under any master.
    */
  def detect(
      spark: SparkSession,
      space: MetricSpace,
      g: ProximityGraph,
      r: Double,
      k: Int,
      usePivotHop: Boolean = true,
      useExactShortcut: Boolean = true,
      counter: ExactCounter = LinearScanCounter(),
      partitions: Int = 0,
  ): DODResult = {
    BruteForce.requireQuery(r, k)
    val t0 = System.nanoTime()
    val chunks = SparkRunner(spark, partitions).runWithData(space.n, (space, g, counter)) {
      case ((sp, gg, ec), s, e) =>
        val c0 = System.nanoTime()
        val out = Array.newBuilder[Int]
        var candidates = 0
        var direct = 0
        var verifyNs = 0L
        var p = s
        while (p < e) {
          filterVerdict(sp, gg, p, r, k, usePivotHop, useExactShortcut) match {
            case Candidate =>
              candidates += 1
              val v0 = System.nanoTime()
              if (ec.count(sp, p, r, k) < k) out += p
              verifyNs += System.nanoTime() - v0
            case DirectOutlier =>
              direct += 1
              out += p
            case _ => ()
          }
          p += 1
        }
        ChunkResult(out.result(), candidates, direct, System.nanoTime() - c0 - verifyNs, verifyNs)
    }
    val wallMs = (System.nanoTime() - t0) / 1000000L

    // chunks come back in id order, so their outliers concatenate sorted
    val outliers = chunks.flatMap(_.outliers).toArray
    val candidates = chunks.map(_.candidates).sum
    val direct = chunks.map(_.directOutliers).sum
    val filterNs = chunks.map(_.filterNs).sum
    val verifyNs = chunks.map(_.verifyNs).sum
    val verifyMs =
      if (verifyNs == 0L) 0L
      else math.round(wallMs * (verifyNs.toDouble / (filterNs + verifyNs)))
    DODResult(
      outliers,
      candidates = candidates,
      falsePositives = candidates - (outliers.length - direct),
      directOutliers = direct,
      filterMs = wallMs - verifyMs,
      verifyMs = verifyMs,
    )
  }

  /** DataFrame wrapper: detected outlier ids as a single-column DataFrame
    * (`id: bigint`) for oracle diffs and spark-submit jobs.
    */
  def detectDF(
      spark: SparkSession,
      space: MetricSpace,
      g: ProximityGraph,
      r: Double,
      k: Int,
  ): DataFrame = {
    import spark.implicits._
    detect(spark, space, g, r, k).outliers.map(_.toLong).toSeq.toDF("id")
  }
}
