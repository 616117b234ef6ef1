package repro.core

import java.lang.Double.doubleToRawLongBits
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The fdlibm `acos` port agrees with `StrictMath.acos` bit for bit. */
class AcosSpec extends AnyFunSuite {

  private def sameBits(x: Double): Unit = {
    val got = Acos(x); val want = StrictMath.acos(x)
    assert(doubleToRawLongBits(got) == doubleToRawLongBits(want),
      s"acos($x) = $got, StrictMath gives $want")
  }

  test("seeded uniform values in [-1, 1]") {
    val rng = new Random(91)
    for (_ <- 0 until 200000) sameBits(rng.nextDouble() * 2 - 1)
  }

  test("random bit patterns with |x| < 1, every exponent") {
    val rng = new Random(94)
    for (_ <- 0 until 200000) {
      val exponent = rng.nextInt(0x3ff).toLong // biased exponent 0..0x3fe: |x| < 1
      val bits = (rng.nextLong() & 0x800FFFFFFFFFFFFFL) | (exponent << 52)
      sameBits(java.lang.Double.longBitsToDouble(bits))
    }
  }

  test("values within 10^-j of +1 and -1, j = 0..16") {
    val rng = new Random(92)
    for (j <- 0 to 16; _ <- 0 until 2000) {
      val u = rng.nextDouble() * math.pow(10, -j)
      sameBits(1 - u)
      sameBits(-1 + u)
    }
  }

  test("neighbours of the |x| = 0.5 branch boundary") {
    for (c <- Seq(0.5, -0.5)) {
      var x = c; var y = c
      for (_ <- 0 until 64) {
        sameBits(x); sameBits(y)
        x = Math.nextUp(x); y = Math.nextDown(y)
      }
    }
  }

  test("tiny arguments, signed zeros and the endpoints") {
    val rng = new Random(93)
    val tiny = math.pow(2, -57)
    for (_ <- 0 until 2000) {
      val x = rng.nextDouble() * tiny
      sameBits(x); sameBits(-x)
    }
    Seq(tiny, -tiny, Math.nextUp(tiny), -Math.nextUp(tiny), Double.MinPositiveValue,
      0.0, -0.0, 1.0, -1.0).foreach(sameBits)
  }

  test("NaN and |x| > 1 give NaN") {
    Seq(Double.NaN, Math.nextUp(1.0), Math.nextDown(-1.0), 2.0, -3.5,
      Double.PositiveInfinity, Double.NegativeInfinity, Double.MaxValue)
      .foreach(x => assert(Acos(x).isNaN, s"acos($x)"))
  }
}
