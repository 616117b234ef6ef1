package repro.core

import org.apache.spark.TaskContext
import repro.SparkSpec

/** Range fan-out correctness: local and Spark runners agree, chunking covers
  * [0, n) exactly once.
  */
class ParRunnerSpec extends SparkSpec {

  private def sumOfSquares(runner: ParRunner, n: Int): Long =
    runner.runWithData(n, ())((_, s, e) => (s until e).map(i => i.toLong * i).sum).sum

  test("LocalRunner covers the range exactly (several n / parts combinations)") {
    for (n <- Seq(0, 1, 7, 100, 1001); parts <- Seq(1, 3, 8, 200)) {
      val runner = new LocalRunner(parts)
      val ids = runner.runWithData(n, ())((_, s, e) => (s until e).toArray).flatten
      assert(ids.sorted.toSeq == (0 until n), s"n=$n parts=$parts")
    }
  }

  test("SparkRunner equals LocalRunner on an aggregate") {
    for (n <- Seq(1, 64, 500)) {
      assert(sumOfSquares(new SparkRunner(spark, 8), n) == sumOfSquares(new LocalRunner(8), n))
    }
  }

  test("SparkRunner passes broadcast data to every chunk") {
    val data = Array.tabulate(100)(_ * 3)
    val runner = new SparkRunner(spark, 4)
    val res = runner.runWithData(100, data)((d, s, e) => (s until e).map(d(_)).sum).sum
    assert(res == data.sum)
  }

  test("chunks are deterministic — two runs return chunk results in the same order") {
    val runner = new LocalRunner(5)
    val a = runner.runWithData(97, ())((_, s, e) => (s, e))
    val b = runner.runWithData(97, ())((_, s, e) => (s, e))
    assert(a == b)
  }

  test("zero-length range returns no chunks") {
    assert(new LocalRunner(4).runWithData(0, ())((_, s, e) => (s, e)).isEmpty)
    assert(new SparkRunner(spark, 4).runWithData(0, ())((_, s, e) => (s, e)).isEmpty)
  }

  test("SparkRunner returns chunk results in chunk order") {
    val got = new SparkRunner(spark, 4).runWithData(1000, ())((_, s, e) => (s, e))
    assert(got == Seq((0, 250), (250, 500), (500, 750), (750, 1000)))
  }

  test("SparkRunner runs each chunk in its own partition") {
    val parts = new SparkRunner(spark, 4).runWithData(1000, ())((_, _, _) => TaskContext.getPartitionId())
    assert(parts == Seq(0, 1, 2, 3))
  }
}
