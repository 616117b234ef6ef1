package repro.core

/** Reference Levenshtein distance for the kernel tests: the standard
  * two-row dynamic program over UTF-16 chars, for strings of any length.
  */
object DpEditDistance {
  def apply(a: String, b: String): Int = {
    if (a == b) return 0
    val (s, t) = if (a.length <= b.length) (a, b) else (b, a)
    val m = s.length; val nn = t.length
    if (m == 0) return nn
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
