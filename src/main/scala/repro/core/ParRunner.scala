package repro.core

import org.apache.spark.sql.SparkSession
import scala.reflect.ClassTag

/** Fan-out of a pure, read-only computation over id ranges `[start, end)` —
  * the one parallel mechanism of the code base.
  *
  * The paper parallelizes NNDescent's local joins, Remove-Detours' BFS, both
  * DOD phases and the baselines across OpenMP threads ("each thread
  * independently evaluates assigned objects"). Here `[0, n)` is cut into at
  * most `parts` contiguous chunks and a "thread" runs one chunk:
  * [[SparkRunner]] runs each chunk in its own Spark partition,
  * [[LocalRunner]] runs them inline on the driver. Both return the chunk
  * results in chunk order, so callers that merge results in that order
  * (NNDescent, Remove-Detours) build identical graphs through either runner.
  *
  * Contiguous chunks are already a random assignment of objects to threads:
  * object ids carry no order (generators draw every row independently from
  * `(seed, id)`), so no permutation is applied.
  *
  * `f` must not mutate `data` — per-chunk results are merged by the caller
  * on the driver (the paper's iteration-synchronous model).
  */
trait ParRunner extends Serializable {
  def runWithData[D: ClassTag, T: ClassTag](n: Int, data: D)(f: (D, Int, Int) => T): Seq[T]

  /** Splits `[0, n)` into at most `parts` contiguous ranges. */
  protected def chunks(n: Int, parts: Int): Seq[(Int, Int)] = {
    if (n <= 0) return Seq.empty
    val p = math.max(1, math.min(parts, n))
    val step = (n + p - 1) / p
    (0 until n by step).map(s => (s, math.min(n, s + step)))
  }
}

/** Sequential in-process runner (deterministic; used by unit tests). */
final class LocalRunner(parts: Int = 8) extends ParRunner {
  def runWithData[D: ClassTag, T: ClassTag](n: Int, data: D)(f: (D, Int, Int) => T): Seq[T] =
    chunks(n, parts).map { case (s, e) => f(data, s, e) }
}

/** Spark-backed runner: broadcasts `data` once per call and runs chunk `i`
  * in partition `i` (one chunk per partition). A single chunk runs inline on
  * the driver, without a job.
  */
final class SparkRunner(@transient spark: SparkSession, parts: Int) extends ParRunner {
  def runWithData[D: ClassTag, T: ClassTag](n: Int, data: D)(f: (D, Int, Int) => T): Seq[T] = {
    val ranges = chunks(n, parts)
    if (ranges.size <= 1) return ranges.map { case (s, e) => f(data, s, e) }
    val sc = spark.sparkContext
    val bc = sc.broadcast(data)
    try sc.parallelize(ranges, ranges.size).map { case (s, e) => f(bc.value, s, e) }.collect().toSeq
    finally bc.destroy()
  }
}

object SparkRunner {

  /** A runner with `partitions` chunks, or Spark's default parallelism when
    * `partitions <= 0`.
    */
  def apply(spark: SparkSession, partitions: Int = 0): SparkRunner =
    new SparkRunner(spark, if (partitions > 0) partitions else spark.sparkContext.defaultParallelism)
}
