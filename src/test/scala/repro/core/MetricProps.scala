package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import repro.graph.NNList

/** ScalaCheck property suites (run by sbt's ScalaCheck framework directly). */
object MetricProps extends Properties("Metric") {

  private val vec: Gen[Array[Double]] =
    Gen.listOfN(6, Gen.choose(-5.0, 5.0)).map(_.toArray)

  private val metrics =
    Seq(VectorMetric.L1, VectorMetric.L2, VectorMetric.L4, VectorMetric.Angular)

  for (m <- metrics) {
    property(s"${m.name}.symmetry") = Prop.forAll(vec, vec) { (a, b) =>
      math.abs(m.dist(a, b) - m.dist(b, a)) < 1e-9
    }
    property(s"${m.name}.triangle") = Prop.forAll(vec, vec, vec) { (a, b, c) =>
      m.dist(a, c) <= m.dist(a, b) + m.dist(b, c) + 1e-9
    }
    property(s"${m.name}.identity") = Prop.forAll(vec) { a =>
      m.dist(a, a) < 1e-6
    }
  }

  private val word: Gen[String] =
    Gen.chooseNum(0, 8).flatMap(n => Gen.listOfN(n, Gen.choose('a', 'c')).map(_.mkString))

  /** Exponential reference implementation for small strings. */
  private def slowEdit(a: String, b: String): Int =
    if (a.isEmpty) b.length
    else if (b.isEmpty) a.length
    else {
      val sub = slowEdit(a.tail, b.tail) + (if (a.head == b.head) 0 else 1)
      val del = slowEdit(a.tail, b) + 1
      val ins = slowEdit(a, b.tail) + 1
      math.min(sub, math.min(del, ins))
    }

  property("EditDistance.matchesRecursiveReference") = Prop.forAll(word, word) { (a, b) =>
    EditDistance(a, b) == slowEdit(a, b)
  }

  // pattern lengths on both sides of the kernel's 64-char limit; chars
  // outside the match table (>= 128, surrogate halves among them) repeat so
  // that they also match
  private val kernelChar: Gen[Char] = Gen.frequency(
    6 -> Gen.choose('a', 'c'),
    1 -> Gen.oneOf('\u007f', '\u0080', '\u00e9', '\u0100', '\uffff'),
    1 -> Gen.oneOf('\ud83d', '\ude00', '\udbff', '\udc00'),
  )

  private val kernelString: Gen[String] = for {
    len <- Gen.frequency(1 -> Gen.chooseNum(0, 70), 1 -> Gen.oneOf(0, 63, 64, 65))
    cs <- Gen.listOfN(len, kernelChar)
  } yield cs.mkString

  /** `a` after up to five random substitutions, insertions and deletions. */
  private def edited(a: String): Gen[String] =
    Gen.listOfN(5, Gen.zip(Gen.choose(0, 3), Gen.choose(0, 1000), kernelChar)).map { ops =>
      ops.foldLeft(a) { case (w, (op, at, c)) =>
        val i = if (w.isEmpty) 0 else at % w.length
        op match {
          case 0 if w.nonEmpty => w.updated(i, c)
          case 1 => w.substring(0, i) + c + w.substring(i)
          case 2 if w.nonEmpty => w.substring(0, i) + w.substring(i + 1)
          case _ => w
        }
      }
    }

  private val kernelPair: Gen[(String, String)] = for {
    a <- kernelString
    b <- Gen.oneOf(kernelString, edited(a))
  } yield (a, b)

  property("EditDistance.matchesTwoRowDP") = Prop.forAll(kernelPair) { case (a, b) =>
    val d = DpEditDistance(a, b)
    EditDistance(a, b) == d && EditDistance(b, a) == d
  }

  property("EditDistance.triangle") = Prop.forAll(word, word, word) { (a, b, c) =>
    EditDistance(a, c) <= EditDistance(a, b) + EditDistance(b, c)
  }
}

/** NNList (bounded sorted candidate list) invariants. */
object NNListProps extends Properties("NNList") {

  private val inserts: Gen[List[(Int, Double)]] =
    Gen.listOf(Gen.zip(Gen.chooseNum(0, 40), Gen.choose(0.0, 100.0)))

  property("sortedAndBounded") = Prop.forAll(inserts, Gen.chooseNum(1, 8)) { (ops, cap) =>
    val l = new NNList(cap)
    ops.foreach { case (id, d) => l.insert(id, d) }
    val ds = l.ds.take(l.size)
    val ids = l.ids.take(l.size)
    l.size <= cap &&
      ds.sameElements(ds.sorted) &&
      ids.distinct.length == ids.length
  }

  property("keepsTheMinimum") = Prop.forAll(inserts, Gen.chooseNum(1, 8)) { (ops, cap) =>
    // in real use an id is always inserted with the same (deterministic)
    // distance, so feed one occurrence per id
    val unique = ops.distinctBy(_._1)
    val l = new NNList(cap)
    unique.foreach { case (id, d) => l.insert(id, d) }
    unique.isEmpty || math.abs(l.ds(0) - unique.map(_._2).min) < 1e-12
  }

  property("rejectsDuplicates") = Prop.forAll(Gen.chooseNum(1, 8)) { cap =>
    val l = new NNList(cap)
    l.insert(1, 5.0) == 0 && l.insert(1, 7.0) < 0 && l.size == 1
  }
}
