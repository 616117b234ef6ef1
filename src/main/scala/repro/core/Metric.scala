package repro.core

/** A finite set of objects with a metric distance, addressed by index 0..n-1.
  *
  * All algorithms in this reproduction (graph builders, baselines, the DOD
  * detector) work on indices, so a space can be broadcast once and shared by
  * every Spark partition. Implementations must be cheap to serialize.
  */
trait MetricSpace extends Serializable {
  /** Number of objects. */
  def n: Int

  /** Metric distance between objects `i` and `j` (symmetric, triangle ineq.). */
  def dist(i: Int, j: Int): Double

  /** Approximate in-memory footprint of the raw data in bytes (Table 6). */
  def dataBytes: Long
}

/** Distance functions over dense vectors. L1/L2/L4 are Minkowski norms; the
  * angular distance is `acos(cosine)/pi`, a metric on the unit sphere (the
  * paper uses it for Glove).
  */
sealed trait VectorMetric extends Serializable {
  def dist(a: Array[Double], b: Array[Double]): Double
  def name: String
}

object VectorMetric {
  case object L1 extends VectorMetric {
    def name = "L1"
    def dist(a: Array[Double], b: Array[Double]): Double = {
      var s = 0.0; var i = 0
      while (i < a.length) { s += math.abs(a(i) - b(i)); i += 1 }
      s
    }
  }

  case object L2 extends VectorMetric {
    def name = "L2"
    def dist(a: Array[Double], b: Array[Double]): Double = {
      var s = 0.0; var i = 0
      while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
      math.sqrt(s)
    }
  }

  case object L4 extends VectorMetric {
    def name = "L4"
    def dist(a: Array[Double], b: Array[Double]): Double = {
      var s = 0.0; var i = 0
      while (i < a.length) { val d = a(i) - b(i); val d2 = d * d; s += d2 * d2; i += 1 }
      math.sqrt(math.sqrt(s))
    }
  }

  /** `acos(cos(a, b)) / pi` in [0, 1]. Callers should pass non-zero vectors. */
  case object Angular extends VectorMetric {
    def name = "Angular"
    def dist(a: Array[Double], b: Array[Double]): Double = {
      var dot = 0.0; var na = 0.0; var nb = 0.0; var i = 0
      while (i < a.length) { dot += a(i) * b(i); na += a(i) * a(i); nb += b(i) * b(i); i += 1 }
      fromDot(dot, math.sqrt(na), math.sqrt(nb))
    }

    /** The angular distance of two vectors from their dot product and norms:
      * the one kernel behind [[dist]] and [[VectorSpace]]. A zero vector is
      * at 0 from another zero vector and at 1 from anything else.
      */
    private[core] def fromDot(dot: Double, normA: Double, normB: Double): Double = {
      val denom = normA * normB
      if (denom == 0.0) { if (normA == normB) 0.0 else 1.0 }
      else Acos(math.max(-1.0, math.min(1.0, dot / denom))) / math.Pi
    }
  }

  def byName(s: String): VectorMetric = s match {
    case "L1" => L1
    case "L2" => L2
    case "L4" => L4
    case "Angular" => Angular
    case other => throw new IllegalArgumentException(s"unknown metric: $other")
  }
}

/** Vectors under a Minkowski or angular metric. Every coordinate must be
  * finite. Norms are precomputed for the angular case so `dist` stays one
  * pass over the coordinates.
  */
final class VectorSpace(val points: Array[Array[Double]], val metric: VectorMetric)
    extends MetricSpace {
  require(points.nonEmpty, "empty space")
  // a NaN distance fails every `<= r` test, so the object would silently
  // count as having no neighbors
  require(points.forall(_.forall(java.lang.Double.isFinite)), "non-finite coordinate")
  val n: Int = points.length
  val dim: Int = points(0).length

  private val norms: Array[Double] =
    if (metric == VectorMetric.Angular) points.map { p =>
      var s = 0.0; var i = 0
      while (i < p.length) { s += p(i) * p(i); i += 1 }
      math.sqrt(s)
    }
    else null

  def dist(i: Int, j: Int): Double = {
    if (metric == VectorMetric.Angular) {
      val a = points(i); val b = points(j)
      var dot = 0.0; var t = 0
      while (t < a.length) { dot += a(t) * b(t); t += 1 }
      VectorMetric.Angular.fromDot(dot, norms(i), norms(j))
    } else metric.dist(points(i), points(j))
  }

  def dataBytes: Long = n.toLong * dim * 8L
}

/** Strings under unit-cost Levenshtein (edit) distance — the paper's Words
  * dataset. Matches DuckDB's and Spark's `levenshtein`, which the oracle
  * tests rely on.
  */
final class StringSpace(val words: Array[String]) extends MetricSpace {
  require(words.nonEmpty, "empty space")
  // a null would pass here and throw on its first distance, inside a task
  require(!words.contains(null), "null word")
  val n: Int = words.length

  def dist(i: Int, j: Int): Double = EditDistance(words(i), words(j)).toDouble

  def dataBytes: Long = words.map(_.length.toLong * 2L + 16L).sum
}

/** Unit-cost Levenshtein distance over UTF-16 chars.
  *
  * When the shorter string has at most 64 chars it is the pattern of
  * Myers' bit-vector algorithm (Myers, JACM 1999) in Hyyrö's form for
  * global edit distance: one column of the DP per char of the longer
  * string, kept as vertical +1/-1 delta bit-vectors, with a horizontal
  * carry-in of 1 because row 0 of the DP grows by 1 per column. Longer
  * strings take the standard two-row DP. Both give the same integer.
  */
object EditDistance {

  /** Per-thread match masks for chars below 128: bit `i` of `peq(c)` is set
    * when pattern char `i` is `c`. All zero between calls.
    */
  private val peqTable = ThreadLocal.withInitial[Array[Long]](() => new Array[Long](128))

  def apply(a: String, b: String): Int = {
    if (a == b) return 0
    val swap = a.length > b.length
    val s = if (swap) b else a
    val t = if (swap) a else b
    if (s.isEmpty) t.length
    else if (s.length <= 64) bitParallel(s, t)
    else twoRow(s, t)
  }

  /** Myers/Hyyrö over pattern `s` (1 to 64 chars) and text `t`. */
  private def bitParallel(s: String, t: String): Int = {
    val m = s.length
    val peq = peqTable.get()
    var i = 0
    while (i < m) {
      val c = s.charAt(i)
      if (c < 128) peq(c) |= 1L << i
      i += 1
    }
    val last = 1L << (m - 1)
    // bits above m - 1 hold junk; carries and shifts only move upward, so
    // it never reaches the bits that are read
    var pv = -1L
    var mv = 0L
    var score = m
    var j = 0
    while (j < t.length) {
      val tc = t.charAt(j)
      val eq = if (tc < 128) peq(tc) else matchMask(s, tc)
      val xv = eq | mv
      val xh = (((eq & pv) + pv) ^ pv) | eq
      var ph = mv | ~(xh | pv)
      var mh = pv & xh
      if ((ph & last) != 0) score += 1
      else if ((mh & last) != 0) score -= 1
      ph = (ph << 1) | 1L
      mh = mh << 1
      pv = mh | ~(xv | ph)
      mv = ph & xv
      j += 1
    }
    i = 0
    while (i < m) {
      val c = s.charAt(i)
      if (c < 128) peq(c) = 0L
      i += 1
    }
    score
  }

  /** The match mask of a char the table does not hold. */
  private def matchMask(s: String, c: Char): Long = {
    var mask = 0L
    var i = 0
    while (i < s.length) {
      if (s.charAt(i) == c) mask |= 1L << i
      i += 1
    }
    mask
  }

  /** Two-row DP over `s` (the shorter, non-empty) and `t`. */
  private def twoRow(s: String, t: String): Int = {
    val m = s.length; val nn = t.length
    var prev = new Array[Int](m + 1)
    var cur = new Array[Int](m + 1)
    var i = 0
    while (i <= m) { prev(i) = i; i += 1 }
    var j = 1
    while (j <= nn) {
      cur(0) = j
      val tc = t.charAt(j - 1)
      var i2 = 1
      while (i2 <= m) {
        val cost = if (s.charAt(i2 - 1) == tc) 0 else 1
        var best = prev(i2 - 1) + cost
        val del = prev(i2) + 1
        if (del < best) best = del
        val ins = cur(i2 - 1) + 1
        if (ins < best) best = ins
        cur(i2) = best
        i2 += 1
      }
      val tmp = prev; prev = cur; cur = tmp
      j += 1
    }
    prev(m)
  }
}
